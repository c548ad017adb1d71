// Package experiments reproduces the paper's evaluation. Every number in
// it is a reduction over one thing, a co-execution Cell (kernels x policy
// x the whole configuration it runs under, VC mode and scheduler knobs
// included), so the package is built from three pieces, each written
// once: Runner.run, the only place a simulation is built and executed;
// Runner.sweep, which runs a flat list of cells on the worker pool and
// returns the paper's per-pair metrics in input order; and Figures, the
// registry of every table and figure ID. Raw per-cell results stay typed
// (Sweep/Pair, Standalone, CollabResult); every registry entry reduces
// them to Tables, which one renderer prints. An entry either runs and
// reduces its cells itself, reduces the shared competitive sweep, or
// declares a study — labelled design points, each a policy and a
// configuration change, reduced to named values by one study runner (the
// per-experiment index in DESIGN.md and EXPERIMENTS.md follows that
// registry). The run kinds (Kind*), Standalone and Metrics are also the
// vocabulary pimserve and the exporters speak.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/llm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Runner executes simulations at a fixed configuration and scale, caching
// the standalone baselines that speedups are normalized against
// (Sec. III-C: execution time alone on all SMs for GPU kernels and on the
// PIM SMs for PIM kernels).
type Runner struct {
	// Cfg is the configuration of the cells the runner's own methods
	// describe (Competitive, the Standalone and sweep methods) under the
	// VC mode they are given; a study point's cells carry a changed copy.
	// Its scheduler knobs are the ones every baseline runs under.
	Cfg config.Config
	// Scale shrinks every kernel uniformly (1.0 = profile defaults).
	Scale float64
	// Parallel bounds the cells a sweep runs at once (defaults to 1; the
	// multi-cell subcommands of cmd/pim raise it). A cell whose baselines
	// are not cached yet also computes them beside its contended run.
	Parallel int
	// TelemetryDir, when non-empty and telemetry collection is enabled
	// (telemetry.Enable), makes every co-execution run write its JSONL
	// capture (manifest + metrics + time series) to one file per pair in
	// that directory; a study point's captures go to the subdirectory
	// <figure ID>/<point label> instead.
	TelemetryDir string
	// RunTimeout bounds each simulation's wall time (0 = unbounded); a
	// run that exceeds it comes back as a *RunError of kind "timeout"
	// instead of hanging the sweep.
	RunTimeout time.Duration
	// Journal, when non-nil, checkpoints every finished competitive
	// pair so an interrupted campaign resumes where it left off:
	// CompetitiveCtx and RunSweepCtx return journaled pairs without
	// re-simulating, and re-run failed ones.
	Journal *Journal
	// Observe, when non-nil, receives every System the runner builds,
	// immediately before it runs, labeled with the run's kind
	// (KindCompetitive, ...). pimserve uses it to attach per-job
	// telemetry for progress streaming. The callback must not retain sys past the run
	// and must be safe for concurrent calls: a cell's baselines may run
	// beside its contended run even when Parallel is 1.
	Observe func(what string, sys *sim.System)

	// Standalone baselines are cached in single-flight cells keyed by
	// the baseline Cell with its seed cleared: the first caller for a
	// key computes inside the cell's once while later callers block on
	// it, so Parallel > 1 sweeps never compute the same baseline twice
	// (the mutex only guards the map). A runner that reseeds between
	// cells (pimbench averages over address streams that way) keeps
	// normalizing against the set it computed first.
	mu    sync.Mutex
	alone map[Cell]*standaloneCell

	// figSweep memoizes the last competitive sweep the figure registry
	// ran, so Figs. 6, 8 and 10 reduce one sweep under `-fig all`.
	figSweep    *Sweep
	figSweepKey string
}

// LLMQKV and LLMMHA are the kernel IDs of the collaborative scenario's
// two stages (Fig. 11): QKV generation on the GPU SMs and multi-head
// attention on the PIM SMs of a GPT-3-like decoder layer.
const (
	LLMQKV = "llm-qkv"
	LLMMHA = "llm-mha"
)

// The run kinds: what one simulation is, as Cell.what names it for
// Observe and RunError. pimserve accepts the first three as a request's
// kind.
const (
	KindCompetitive   = "competitive"
	KindStandaloneGPU = "standalone-gpu"
	KindStandalonePIM = "standalone-pim"
	KindCollaborative = "collaborative"
)

// Cell is one simulation described as data: which kernels run where,
// under which policy and configuration.
type Cell struct {
	// GPU is the kernel on the GPU SMs and PIM the kernel on the
	// reserved PIM SMs; either may be empty (a standalone run). Beside
	// the Table II/III IDs, LLMQKV and LLMMHA name the collaborative
	// stages, and a GPU kernel ID in the PIM slot co-runs it as a plain
	// MEM kernel on the reserved SMs (Fig. 5's GPU co-runners).
	GPU, PIM string
	// Policy is a name core.NewPolicy accepts.
	Policy string
	// Cfg is the whole configuration the cell runs under, VC mode
	// (Cfg.NoC.Mode) and scheduler knobs included.
	Cfg config.Config
	// SMs, when positive, runs the GPU kernel on the first SMs SMs
	// instead of the co-execution share.
	SMs int
}

// aloneGPU and alonePIM describe a kernel's standalone baseline:
// FR-FCFS on VC1 under cfg (Sec. III-C).
func aloneGPU(id string, sms int, cfg config.Config) Cell {
	cfg.NoC.Mode = config.VC1
	return Cell{GPU: id, SMs: sms, Policy: "fr-fcfs", Cfg: cfg}
}

func alonePIM(id string, cfg config.Config) Cell {
	cfg.NoC.Mode = config.VC1
	return Cell{PIM: id, Policy: "fr-fcfs", Cfg: cfg}
}

// at returns the runner's configuration under VC mode mode.
func (r *Runner) at(mode config.VCMode) config.Config {
	cfg := r.Cfg
	cfg.NoC.Mode = mode
	return cfg
}

// what names the cell's run kind.
func (c Cell) what() string {
	switch {
	case c.PIM == "":
		return KindStandaloneGPU
	case c.GPU == "":
		return KindStandalonePIM
	case c.GPU == LLMQKV:
		return KindCollaborative
	}
	return KindCompetitive
}

func gpuProfile(id string) (workload.GPUProfile, error) {
	if id == LLMQKV {
		return llm.GPT3Like().QKVProfile(), nil
	}
	return workload.GPUProfileByID(id)
}

func pimProfile(id string) (workload.PIMProfile, error) {
	if id == LLMMHA {
		return llm.GPT3Like().MHAProfile(), nil
	}
	return workload.PIMProfileByID(id)
}

// descs resolves the cell's kernels into descriptors at scale.
func (c Cell) descs(scale float64) ([]sim.KernelDesc, error) {
	gpuSMs, pimSMs := sim.GPUAndPIMSMs(c.Cfg)
	var ds []sim.KernelDesc
	if c.GPU != "" {
		prof, err := gpuProfile(c.GPU)
		if err != nil {
			return nil, err
		}
		if c.SMs > 0 {
			gpuSMs = sim.SomeSMs(c.Cfg, c.SMs)
		}
		ds = append(ds, sim.KernelDesc{GPU: &prof, SMs: gpuSMs, Scale: scale})
	}
	if c.PIM != "" {
		co := sim.KernelDesc{SMs: pimSMs, Scale: scale, Base: 1 << 30}
		if prof, err := pimProfile(c.PIM); err == nil {
			co.PIM = &prof
		} else if g, gerr := workload.GPUProfileByID(c.PIM); gerr == nil {
			co.GPU = &g
		} else {
			return nil, err
		}
		ds = append(ds, co)
	}
	return ds, nil
}

// run is the package's one simulation choke point: it builds the cell's
// System at the runner's scale and executes it under the resilience
// harness (runSystem: ctx, RunTimeout, panic and deadline -> *RunError,
// Observe).
func (r *Runner) run(ctx context.Context, c Cell) (*sim.Result, error) {
	factory := core.Factory(c.Policy, c.Cfg.Sched)
	if factory == nil {
		return nil, fmt.Errorf("experiments: unknown policy %q", c.Policy)
	}
	descs, err := c.descs(r.Scale)
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(c.Cfg, factory, descs)
	if err != nil {
		return nil, err
	}
	// The collaborative stages are one decoder layer, not a loop: each
	// runs once instead of relaunching to keep up contention.
	sys.SetRunOnce(c.GPU == LLMQKV || c.PIM == LLMMHA)
	return r.runSystem(ctx, sys, c)
}

type standaloneCell struct {
	once sync.Once
	s    Standalone
	err  error
}

// Standalone summarizes a kernel running alone; it is also pimserve's
// standalone payload.
type Standalone struct {
	// Cycles is the first-run completion time in GPU cycles.
	Cycles uint64 `json:"cycles"`
	// NoCRate and MCRate are arrival rates in requests per kilo-GPU-
	// cycle (Fig. 4a/4b).
	NoCRate float64 `json:"noc_rate"`
	MCRate  float64 `json:"mc_rate"`
	// BLP and RBHR are the DRAM utilization characteristics (Fig. 4c/4d).
	BLP  float64 `json:"blp"`
	RBHR float64 `json:"rbhr"`
}

// NewRunner builds a runner. scale <= 0 defaults to 1.
func NewRunner(cfg config.Config, scale float64) *Runner {
	if scale <= 0 {
		scale = 1
	}
	return &Runner{Cfg: cfg, Scale: scale, Parallel: 1, alone: make(map[Cell]*standaloneCell)}
}

// ctxErrLike reports whether err stems from a cancellation or deadline
// (directly or through a RunError/ErrInterrupted chain).
func ctxErrLike(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// standalone runs (and caches) a one-kernel cell. Concurrent callers for
// the same cell share one computation; one that died on a cancellation
// or deadline is forgotten, so it does not poison the cache for later
// callers, and a caller that joined it with its own ctx still live
// computes the cell afresh.
func (r *Runner) standalone(ctx context.Context, c Cell) (Standalone, error) {
	key := c
	key.Cfg.Seed = 0
	for {
		r.mu.Lock()
		if r.alone == nil {
			r.alone = make(map[Cell]*standaloneCell)
		}
		sc := r.alone[key]
		if sc == nil {
			sc = &standaloneCell{}
			r.alone[key] = sc
		}
		r.mu.Unlock()
		ran := false
		sc.once.Do(func() {
			ran = true
			sc.s, sc.err = r.computeStandalone(ctx, c)
		})
		if sc.err == nil || !ctxErrLike(sc.err) {
			return sc.s, sc.err
		}
		r.mu.Lock()
		if r.alone[key] == sc {
			delete(r.alone, key)
		}
		r.mu.Unlock()
		if ran || ctx.Err() != nil {
			return sc.s, sc.err
		}
	}
}

func (r *Runner) computeStandalone(ctx context.Context, c Cell) (Standalone, error) {
	res, err := r.run(ctx, c)
	if err != nil {
		return Standalone{}, err
	}
	if !res.Kernels[0].Finished {
		return Standalone{}, fmt.Errorf("experiments: standalone %s did not finish", res.Kernels[0].Label)
	}
	tc := res.Stats.TotalChannel()
	s := Standalone{
		Cycles:  res.Kernels[0].FirstFinish,
		NoCRate: res.Stats.NoCArrivalRate(0),
		MCRate:  res.Stats.MCArrivalRate(0),
		BLP:     tc.BLP(),
		RBHR:    tc.RBHR(),
	}
	if total := tc.PIMRowHits + tc.PIMRowMisses; c.PIM != "" && total > 0 {
		s.RBHR = float64(tc.PIMRowHits) / float64(total)
	}
	return s, nil
}

// StandaloneGPU runs (and caches) GPU kernel id alone on every SM.
func (r *Runner) StandaloneGPU(id string) (Standalone, error) {
	return r.StandaloneGPUCtx(context.Background(), id)
}

// StandaloneGPUCtx is StandaloneGPU bounded by ctx; a run interrupted by
// the context surfaces the cancellation and is retried by later callers
// instead of staying cached as a failure.
func (r *Runner) StandaloneGPUCtx(ctx context.Context, id string) (Standalone, error) {
	return r.standalone(ctx, aloneGPU(id, r.Cfg.GPU.NumSMs, r.Cfg))
}

// StandaloneGPUOn runs (and caches) GPU kernel id alone on n SMs (the
// GPU-8 and 72-SM configurations of Figs. 4 and 5).
func (r *Runner) StandaloneGPUOn(id string, n int) (Standalone, error) {
	return r.standalone(context.Background(), aloneGPU(id, n, r.Cfg))
}

// StandalonePIM runs (and caches) PIM kernel id alone on the PIM SMs.
func (r *Runner) StandalonePIM(id string) (Standalone, error) {
	return r.StandalonePIMCtx(context.Background(), id)
}

// StandalonePIMCtx is StandalonePIM bounded by ctx, like
// StandaloneGPUCtx.
func (r *Runner) StandalonePIMCtx(ctx context.Context, id string) (Standalone, error) {
	return r.standalone(ctx, alonePIM(id, r.Cfg))
}

// baselines returns the standalone runs the cell's speedups are
// normalized against: the GPU kernel alone on every SM and, when the
// co-runner is a PIM kernel, that kernel alone on the PIM SMs, both
// under the cell's configuration with the runner's scheduler knobs — so
// cells that differ only in their knobs share one set. The
// collaborative stages are each measured on their own SM share instead
// (Sec. VI-B compares against running them back to back).
func (r *Runner) baselines(ctx context.Context, c Cell) (g, p Standalone, err error) {
	cfg := c.Cfg
	cfg.Sched = r.Cfg.Sched
	sms := cfg.GPU.NumSMs
	if c.GPU == LLMQKV {
		sms -= cfg.GPU.PIMSMs
	}
	if g, err = r.standalone(ctx, aloneGPU(c.GPU, sms, cfg)); err != nil || c.PIM == "" {
		return g, p, err
	}
	if _, perr := pimProfile(c.PIM); perr == nil {
		p, err = r.standalone(ctx, alonePIM(c.PIM, cfg))
	}
	return g, p, err
}

// Pair is the outcome of one co-execution cell.
type Pair struct {
	GPUID, PIMID string
	Policy       string
	Mode         config.VCMode

	// GPUSpeedup and PIMSpeedup follow Sec. III-C (alone / contended;
	// partial progress is linearly extrapolated, total starvation is 0).
	GPUSpeedup, PIMSpeedup float64
	// Fairness is Eq. 1; Throughput the speedup sum.
	Fairness, Throughput float64

	// MemArrivalNorm is the GPU kernel's MC arrival rate under
	// contention normalized to standalone (Fig. 6).
	MemArrivalNorm float64

	// Switches, ConflictsPerSwitch and DrainPerSwitch are the Fig. 10
	// overheads (totals across channels; drain in DRAM cycles).
	Switches           uint64
	ConflictsPerSwitch float64
	DrainPerSwitch     float64

	// AvgMemQ and AvgPIMQ are the average controller queue occupancies
	// per channel (the Fig. 7 congestion signal).
	AvgMemQ, AvgPIMQ float64

	// Aborted marks runs that starved before both kernels finished.
	Aborted bool

	// Manifest identifies the underlying contended run (always set).
	Manifest *telemetry.Manifest
	// Telemetry carries the run's sample ring and published metrics when
	// telemetry collection was enabled (nil otherwise). It is stripped
	// before journaling.
	Telemetry *telemetry.Collector `json:"-"`
	// Faults counts the injected fault events of the contended run (nil
	// when no fault schedule was active).
	Faults *faults.Counts
}

// Metrics is a competitive cell's outcome as a record: pimserve's
// competitive payload, and the body of a campaign's per-pair file.
type Metrics struct {
	GPUSpeedup         float64        `json:"gpu_speedup"`
	PIMSpeedup         float64        `json:"pim_speedup"`
	Fairness           float64        `json:"fairness"`
	Throughput         float64        `json:"throughput"`
	MemArrivalNorm     float64        `json:"mem_arrival_norm"`
	Switches           uint64         `json:"switches"`
	ConflictsPerSwitch float64        `json:"conflicts_per_switch"`
	DrainPerSwitch     float64        `json:"drain_per_switch"`
	AvgMemQ            float64        `json:"avg_memq"`
	AvgPIMQ            float64        `json:"avg_pimq"`
	Aborted            bool           `json:"aborted"`
	Faults             *faults.Counts `json:"faults,omitempty"`
}

// Metrics returns the pair's outcome record.
func (p Pair) Metrics() Metrics {
	return Metrics{GPUSpeedup: p.GPUSpeedup, PIMSpeedup: p.PIMSpeedup, Fairness: p.Fairness, Throughput: p.Throughput,
		MemArrivalNorm: p.MemArrivalNorm, Switches: p.Switches, ConflictsPerSwitch: p.ConflictsPerSwitch,
		DrainPerSwitch: p.DrainPerSwitch, AvgMemQ: p.AvgMemQ, AvgPIMQ: p.AvgPIMQ, Aborted: p.Aborted, Faults: p.Faults}
}

func speedup(alone uint64, contended uint64) float64 {
	if contended == 0 {
		return 0
	}
	return float64(alone) / float64(contended)
}

// Competitive runs GPU kernel gpuID against PIM kernel pimID under the
// given policy and interconnect mode, returning the paper's metrics.
func (r *Runner) Competitive(gpuID, pimID, policy string, mode config.VCMode) (Pair, error) {
	return r.CompetitiveCtx(context.Background(), gpuID, pimID, policy, mode)
}

// CompetitiveCtx is Competitive under a campaign context: the contended
// run is cancelled with the context (and bounded by RunTimeout), panics
// and deadline expiries surface as a *RunError, combinations the Journal
// already records as done return their checkpointed Pair without
// simulating, and a newly finished one is journaled.
func (r *Runner) CompetitiveCtx(ctx context.Context, gpuID, pimID, policy string, mode config.VCMode) (Pair, error) {
	key := PairKey(gpuID, pimID, policy, mode)
	if p, ok := r.Journal.LookupDone(key); ok {
		return p, nil
	}
	p, _, err := r.pair(ctx, Cell{GPU: gpuID, PIM: pimID, Policy: policy, Cfg: r.at(mode)}, r.TelemetryDir)
	if err == nil {
		err = r.Journal.RecordDone(key, p)
	}
	return p, err
}

// pair runs one cell that has a GPU kernel and reduces it to the paper's
// metrics against the cell's standalone baselines; the raw result comes
// back too, for the figures that read statistics a Pair does not carry.
// The run's capture, if any, goes to dir.
func (r *Runner) pair(ctx context.Context, c Cell, dir string) (Pair, *sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return Pair{}, nil, err
	}
	gAlone, pAlone, res, err := r.simulate(ctx, c)
	if err != nil {
		return Pair{}, nil, err
	}
	tc := res.Stats.TotalChannel()
	p := Pair{
		GPUID: c.GPU, PIMID: c.PIM, Policy: c.Policy, Mode: c.Cfg.NoC.Mode,
		GPUSpeedup:         speedup(gAlone.Cycles, res.Kernels[0].EstFinish),
		Switches:           tc.Switches,
		ConflictsPerSwitch: tc.ConflictsPerSwitch(),
		DrainPerSwitch:     tc.DrainPerSwitch(),
		// Summing occupancy and samples across channels yields the
		// per-channel per-cycle average directly.
		AvgMemQ: tc.AvgMemQ(),
		AvgPIMQ: tc.AvgPIMQ(),
		Aborted: res.Aborted,
	}
	if len(res.Kernels) > 1 {
		p.PIMSpeedup = speedup(pAlone.Cycles, res.Kernels[1].EstFinish)
	}
	p.Fairness = stats.FairnessIndex(p.GPUSpeedup, p.PIMSpeedup)
	p.Throughput = stats.SystemThroughput(p.GPUSpeedup, p.PIMSpeedup)
	if gAlone.MCRate > 0 {
		p.MemArrivalNorm = res.Stats.MCArrivalRate(0) / gAlone.MCRate
	}
	if res.Manifest != nil {
		res.Manifest.Policy = c.Policy
		res.Manifest.VCMode = c.Cfg.NoC.Mode.String()
		res.Manifest.Scale = r.Scale
	}
	p.Manifest = res.Manifest
	p.Telemetry = res.Telemetry
	p.Faults = res.Faults
	if dir != "" && res.Telemetry != nil {
		if err := writePairTelemetry(dir, &p); err != nil {
			return Pair{}, nil, err
		}
	}
	return p, res, nil
}

// simulate runs the contended run of c on this goroutine while one helper
// goroutine computes (or reads from the cache) the cell's baselines, GPU
// then PIM, so a cold cell costs its longest simulation rather than the
// sum. A side that fails cancels the other, and the error reported keeps
// the serial order: GPU baseline, PIM baseline, contended run. A baseline
// cancelled that way is not cached (standalone forgets context errors).
func (r *Runner) simulate(ctx context.Context, c Cell) (Standalone, Standalone, *sim.Result, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var b struct { // the helper's outcome, read after wg.Wait
		g, p Standalone
		err  error
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if b.g, b.p, b.err = r.baselines(runCtx, c); b.err != nil {
			cancel()
		}
	}()
	res, err := r.run(runCtx, c)
	if err != nil {
		cancel()
	}
	wg.Wait()
	switch {
	case b.err == nil:
		return b.g, b.p, res, err
	case err != nil && errors.Is(b.err, context.Canceled) && ctx.Err() == nil:
		// The contended run failed first and cancelled the baselines.
		return b.g, b.p, nil, err
	}
	return b.g, b.p, nil, b.err
}

// writePairTelemetry dumps one pair's JSONL capture into dir,
// atomically, so a killed campaign never leaves a truncated capture.
func writePairTelemetry(dir string, p *Pair) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: telemetry dir: %w", err)
	}
	path := filepath.Join(dir, PairKey(p.GPUID, p.PIMID, p.Policy, p.Mode)+".jsonl")
	if err := telemetry.WriteJSONLFile(path, p.Manifest, p.Telemetry.Metrics(), p.Telemetry.Sampler.Snapshots()); err != nil {
		return fmt.Errorf("experiments: write telemetry: %w", err)
	}
	return nil
}

// DefaultGPUKernels and DefaultPIMKernels are the quick-sweep subsets
// used by tests and benchmarks; `pim sweep -all` runs all 20 x 9.
var (
	DefaultGPUKernels = []string{"G4", "G8", "G17"}
	DefaultPIMKernels = []string{"P1", "P2"}
)

// AllGPUKernels returns G1..G20.
func AllGPUKernels() []string {
	ids := make([]string, 0, 20)
	for _, p := range workload.GPUProfiles() {
		ids = append(ids, p.ID)
	}
	return ids
}

// AllPIMKernels returns P1..P9.
func AllPIMKernels() []string {
	ids := make([]string, 0, 9)
	for _, p := range workload.PIMProfiles() {
		ids = append(ids, p.ID)
	}
	return ids
}

// cross builds the GPU x PIM cells of one design point, GPU-major.
func cross(gpuIDs, pimIDs []string, policy string, cfg config.Config) []Cell {
	cells := make([]Cell, 0, len(gpuIDs)*len(pimIDs))
	for _, g := range gpuIDs {
		for _, p := range pimIDs {
			cells = append(cells, Cell{GPU: g, PIM: p, Policy: policy, Cfg: cfg})
		}
	}
	return cells
}

// task is one cell and the directory its capture goes to.
type task struct {
	c   Cell
	dir string
}

// tasks sends the cells' captures to the runner's TelemetryDir.
func (r *Runner) tasks(cells []Cell) []task {
	ts := make([]task, len(cells))
	for i, c := range cells {
		ts[i] = task{c, r.TelemetryDir}
	}
	return ts
}

// sweep is the one primitive every figure runs its cells through: the
// flat task list goes onto r's worker pool (Parallel) and comes back as
// the paper's per-pair metrics plus the raw results, both in input
// order. Baselines are computed
// first, serially, so a kernel that cannot run alone aborts the sweep
// instead of failing every cell that needs it, and the workers only read
// the caches.
//
// A non-nil failed selects campaign semantics (RunSweepCtx, whose cells
// are plain GPU x PIM combinations at r.Cfg — the only shape a PairKey
// identifies): cells go through CompetitiveCtx, so the Journal resumes
// and records them, and a *RunError (panic, per-run timeout) is quarantined in failed under the
// cell's PairKey — leaving a zero-metric Pair and a nil result in its
// slot — while the rest of the sweep completes. Otherwise the first
// error stops the sweep. Cancelling ctx stops it either way; the slices
// then hold what finished.
func (r *Runner) sweep(ctx context.Context, tasks []task, failed map[string]*RunError) ([]Pair, []*sim.Result, error) {
	for _, t := range tasks {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if _, _, err := r.baselines(ctx, t.c); err != nil {
			return nil, nil, err
		}
	}
	pairs := make([]Pair, len(tasks))
	results := make([]*sim.Result, len(tasks))
	var mu sync.Mutex // guards failed; every task owns its slice slots
	err := r.forEachPairCtx(ctx, len(tasks), func(i int) error {
		t := tasks[i]
		if failed == nil {
			p, res, err := r.pair(ctx, t.c, t.dir)
			pairs[i], results[i] = p, res
			return err
		}
		c, mode := t.c, t.c.Cfg.NoC.Mode
		p, err := r.CompetitiveCtx(ctx, c.GPU, c.PIM, c.Policy, mode)
		var re *RunError
		if errors.As(err, &re) && re.Kind != "canceled" {
			mu.Lock()
			failed[PairKey(c.GPU, c.PIM, c.Policy, mode)] = re
			mu.Unlock()
			p, err = Pair{GPUID: c.GPU, PIMID: c.PIM, Policy: c.Policy, Mode: mode}, nil
		}
		pairs[i] = p
		return err
	})
	return pairs, results, err
}

// forEachPairCtx runs fn(0..n-1) on up to Parallel workers. Once ctx is done no
// new job starts (in-flight jobs observe ctx through their own
// simulation loops) and the context's error is reported.
func (r *Runner) forEachPairCtx(ctx context.Context, n int, fn func(i int) error) error {
	workers := min(max(r.Parallel, 1), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// Errors are collected under a mutex rather than a results channel:
	// every worker send stays non-blocking no matter when the consumer
	// runs, and a real run error is preferred over the cancellations it
	// may have caused.
	var (
		mu     sync.Mutex
		runErr error // first non-cancellation error
		ctxErr error // first cancellation
	)
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if ctxErrLike(err) {
			if ctxErr == nil {
				ctxErr = err
			}
			return
		}
		if runErr == nil {
			runErr = err
		}
	}
	jobc := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobc {
				if err := ctx.Err(); err != nil {
					record(err)
					continue
				}
				record(fn(i))
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobc <- i:
		case <-ctx.Done():
			record(ctx.Err())
			break dispatch
		}
	}
	close(jobc)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if runErr != nil {
		return runErr
	}
	return ctxErr
}
