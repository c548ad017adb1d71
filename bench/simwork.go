package bench

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The three simulator workloads. Each is a fixed list of cells (one cell
// is one simulation); a pass runs every cell once, on one goroutine, with
// the default event engine.
const (
	CoexecSaturated  = "coexec_saturated"
	StandaloneSparse = "standalone_sparse"
	PIMLockstep      = "pim_lockstep"
	ServeMixed       = "serve_mixed"
)

// Workloads lists every workload in the order BENCHMARK.json names them.
var Workloads = []string{CoexecSaturated, StandaloneSparse, PIMLockstep, ServeMixed}

// Kernel scales, chosen so that one pass takes 1.5–2 s on the 2-core
// sandbox: a run of BENCHMARK.json's run_seconds then holds 7–10 timed
// passes, enough for a median that repeats.
const (
	coexecScale = 0.1
	sparseScale = 4
	pimScale    = 0.4
	// coexecMaxGPUCycles bounds a co-execution cell as the figure sweeps
	// in bench_test.go do.
	coexecMaxGPUCycles = 2_000_000
)

// DefaultSeed is the seed bench/expected/*.json was written at.
const DefaultSeed = 1

var (
	coexecGPUs     = []string{"G4", "G8", "G17"}
	coexecPIMs     = []string{"P1", "P2"}
	coexecPolicies = []string{"fcfs", "fr-fcfs", "fr-rr-fcfs", "f3fs"}
	sparseGPUs     = []string{"G7", "G10", "G12"} // the compute-intensive kernels
	pimPolicies    = []string{"pim-first", "f3fs"}
	vcModes        = []config.VCMode{config.VC1, config.VC2}
)

// simCell describes one simulation: a GPU kernel, a PIM kernel or both.
type simCell struct {
	Name     string
	Cfg      config.Config
	Policy   string
	GPU, PIM string
	// SMs is the GPU kernel's SM count when it runs alone; a cell with
	// both kernels uses the co-execution split.
	SMs   int
	Scale float64
}

// descs builds the kernel descriptors the way experiments.Runner does for
// the same cell.
func (c simCell) descs() ([]sim.KernelDesc, error) {
	gpuSMs, pimSMs := sim.GPUAndPIMSMs(c.Cfg)
	var ds []sim.KernelDesc
	if c.GPU != "" {
		prof, err := workload.GPUProfileByID(c.GPU)
		if err != nil {
			return nil, err
		}
		if c.PIM == "" {
			gpuSMs = sim.SomeSMs(c.Cfg, c.SMs)
		}
		ds = append(ds, sim.KernelDesc{GPU: &prof, SMs: gpuSMs, Scale: c.Scale})
	}
	if c.PIM != "" {
		prof, err := workload.PIMProfileByID(c.PIM)
		if err != nil {
			return nil, err
		}
		ds = append(ds, sim.KernelDesc{PIM: &prof, SMs: pimSMs, Scale: c.Scale, Base: 1 << 30})
	}
	return ds, nil
}

// simCells generates a workload's cells from the seed: every cell gets a
// config seed of its own, so a run averages over as many address streams
// as it has cells instead of betting on one, and the seed also shuffles
// the order the cells run in. size multiplies the kernel scales (1 in
// benchmark runs; tests shrink it).
func simCells(name string, seed int64, size float64) ([]simCell, error) {
	base := config.Scaled()
	var cells []simCell
	add := func(c simCell, mode config.VCMode) {
		c.Cfg = base
		c.Cfg.NoC.Mode = mode
		c.Cfg.Seed = seed*1_000_003 + int64(len(cells)) + 1
		cells = append(cells, c)
	}
	switch name {
	case CoexecSaturated:
		base.MaxGPUCycles = coexecMaxGPUCycles
		for _, mode := range vcModes {
			for _, pol := range coexecPolicies {
				for _, g := range coexecGPUs {
					for _, p := range coexecPIMs {
						add(simCell{
							Name:   fmt.Sprintf("%sx%s/%s/%s", g, p, pol, mode),
							Policy: pol, GPU: g, PIM: p, Scale: coexecScale * size,
						}, mode)
					}
				}
			}
		}
	case StandaloneSparse:
		for _, g := range sparseGPUs {
			for _, sms := range []int{4, base.GPU.NumSMs} {
				for _, mode := range vcModes {
					add(simCell{
						Name:   fmt.Sprintf("%s/%dsm/%s", g, sms, mode),
						Policy: "fr-fcfs", GPU: g, SMs: sms, Scale: sparseScale * size,
					}, mode)
				}
			}
		}
	case PIMLockstep:
		for _, p := range experiments.AllPIMKernels() {
			for _, pol := range pimPolicies {
				for _, mode := range vcModes {
					add(simCell{
						Name:   fmt.Sprintf("%s/%s/%s", p, pol, mode),
						Policy: pol, PIM: p, Scale: pimScale * size,
					}, mode)
				}
			}
		}
	default:
		return nil, fmt.Errorf("bench: %q is not a simulator workload", name)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, nil
}

// cellOutcome is what one run of a cell yields.
type cellOutcome struct {
	Digest     string
	DRAMCycles uint64
	Wall       time.Duration
	// Slow is the host's slowness around the run (hostMeter.lap), 1 when
	// nothing measured it.
	Slow float64
	// Fault is empty for a correct run; otherwise it says which check of
	// (c) failed: a run error, an abort, an unfinished kernel or requests
	// issued but never completed.
	Fault string
	// Result is kept for direct runs only (traced runs read its counters).
	Result *sim.Result
}

// digestResult fingerprints every simulated statistic of a direct run:
// a simulator speed-up must leave all of them identical.
func digestResult(res *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "gpu=%d dram=%d aborted=%v\n", res.GPUCycles, res.DRAMCycles, res.Aborted)
	for _, k := range res.Kernels {
		fmt.Fprintf(h, "%s fin=%v first=%d est=%d runs=%d issued=%d done=%d total=%d stall=%d\n",
			k.Label, k.Finished, k.FirstFinish, k.EstFinish, k.Runs, k.Issued, k.Completed, k.Total, k.StallCycles)
	}
	fmt.Fprintf(h, "%+v\n%+v\n", res.Stats.TotalChannel(), res.Stats.Apps)
	return hex.EncodeToString(h.Sum(nil))
}

// digestPair does the same for a co-execution run seen through the
// experiments harness, which exposes the reduced figure quantities.
func digestPair(p experiments.Pair) string {
	h := sha256.New()
	fmt.Fprintf(h, "gpu=%d dram=%d aborted=%v\n", p.Manifest.GPUCycles, p.Manifest.DRAMCycles, p.Aborted)
	fmt.Fprintf(h, "%v %v %v %v %v %d %v %v %v %v\n", p.GPUSpeedup, p.PIMSpeedup, p.Fairness, p.Throughput,
		p.MemArrivalNorm, p.Switches, p.ConflictsPerSwitch, p.DrainPerSwitch, p.AvgMemQ, p.AvgPIMQ)
	return hex.EncodeToString(h.Sum(nil))
}

// runDirect builds the cell with sim.New and runs it with System.Run.
func runDirect(c simCell, tr *Tracer, op int) cellOutcome {
	start := time.Now()
	root := tr.Start("cell", op, 0)
	defer tr.End(root)
	fail := func(format string, a ...any) cellOutcome {
		return cellOutcome{Fault: fmt.Sprintf(format, a...), Wall: time.Since(start)}
	}
	descs, err := c.descs()
	if err != nil {
		return fail("describe: %v", err)
	}
	factory := core.Factory(c.Policy, c.Cfg.Sched)
	if factory == nil {
		return fail("unknown policy %q", c.Policy)
	}
	sp := tr.Start("sim.New", op, root)
	sys, err := sim.New(c.Cfg, factory, descs)
	tr.End(sp)
	if err != nil {
		return fail("sim.New: %v", err)
	}
	sp = tr.Start("System.Run", op, root)
	res, err := sys.Run()
	tr.End(sp)
	if err != nil {
		return fail("System.Run: %v", err)
	}
	out := cellOutcome{Digest: digestResult(res), DRAMCycles: res.DRAMCycles, Result: res, Wall: time.Since(start)}
	switch {
	case res.Aborted:
		out.Fault = "aborted"
	default:
		for _, k := range res.Kernels {
			if !k.Finished {
				out.Fault = k.Label + " did not finish"
			} else if len(res.Kernels) == 1 && (k.Issued != k.Total || k.Completed != k.Issued) {
				// Co-running kernels are relaunched for contention and end
				// mid-run; a kernel alone must have retired all it issued.
				out.Fault = fmt.Sprintf("%s issued %d completed %d of %d", k.Label, k.Issued, k.Completed, k.Total)
			}
		}
	}
	return out
}

// simWorkload is one simulator workload after set-up.
type simWorkload struct {
	name  string
	cells []simCell
	// runner is set for coexec_saturated, whose cells go through the
	// experiments harness with the standalone baselines pre-warmed.
	runner *experiments.Runner

	// tr and the fields below carry the current cell into the runner's
	// Observe callback (one goroutine, so no locking).
	tr         *Tracer
	curOp      int
	curParent  int
	prerunSpan int
	runSpan    int
}

// newSimWorkload is the set-up: the cell list and, for coexec_saturated,
// a runner with its standalone baselines computed.
func newSimWorkload(name string, seed int64, size float64) (*simWorkload, error) {
	cells, err := simCells(name, seed, size)
	if err != nil {
		return nil, err
	}
	w := &simWorkload{name: name, cells: cells}
	if name != CoexecSaturated {
		return w, nil
	}
	// The baselines are computed once, at the run's seed; each cell then
	// runs at its own (runCell sets it on the runner).
	baseCfg := cells[0].Cfg
	baseCfg.Seed = seed
	w.runner = experiments.NewRunner(baseCfg, cells[0].Scale)
	for _, g := range coexecGPUs {
		if _, err := w.runner.StandaloneGPU(g); err != nil {
			return nil, fmt.Errorf("bench: baseline %s: %w", g, err)
		}
	}
	for _, p := range coexecPIMs {
		if _, err := w.runner.StandalonePIM(p); err != nil {
			return nil, fmt.Errorf("bench: baseline %s: %w", p, err)
		}
	}
	// The "run starts" mark: the harness calls Observe right before
	// RunContext, which splits a traced cell into what the harness does
	// first and the simulation itself.
	w.runner.Observe = func(what string, _ *sim.System) {
		if w.tr == nil || what != "competitive" {
			return
		}
		w.tr.End(w.prerunSpan)
		w.runSpan = w.tr.Start("experiments.run", w.curOp, w.curParent)
	}
	return w, nil
}

// runCell runs cell i once.
func (w *simWorkload) runCell(i int, tr *Tracer, op int) cellOutcome {
	c := w.cells[i]
	if w.runner == nil {
		return runDirect(c, tr, op)
	}
	start := time.Now()
	root := tr.Start("cell", op, 0)
	call := tr.Start("Runner.CompetitiveCtx", op, root)
	w.tr, w.curOp, w.curParent = tr, op, call
	w.prerunSpan, w.runSpan = tr.Start("experiments.prerun", op, call), 0
	w.runner.Cfg.Seed = c.Cfg.Seed
	pair, err := w.runner.CompetitiveCtx(context.Background(), c.GPU, c.PIM, c.Policy, c.Cfg.NoC.Mode)
	tr.End(w.runSpan)
	tr.End(call)
	tr.End(root)
	w.tr = nil
	if err != nil {
		return cellOutcome{Fault: err.Error(), Wall: time.Since(start)}
	}
	out := cellOutcome{Digest: digestPair(pair), DRAMCycles: pair.Manifest.DRAMCycles, Wall: time.Since(start)}
	if pair.Aborted {
		out.Fault = "aborted"
	}
	return out
}

// passResult is one pass over every cell.
type passResult struct {
	Wall     time.Duration // the cells' own time, without the probes between them
	Cycles   uint64
	Mallocs  uint64
	Bytes    uint64
	GCs      uint32
	Outcomes []cellOutcome
}

// pass runs every cell once and measures the host cost of each: wall time,
// heap allocations, and through m the host's slowness around it. opBase
// numbers the cells' spans.
func (w *simWorkload) pass(tr *Tracer, opBase int, m *hostMeter) passResult {
	var before, after runtime.MemStats
	runtime.GC() // every pass starts from the same heap state
	runtime.ReadMemStats(&before)
	gcs := before.NumGC
	p := passResult{Outcomes: make([]cellOutcome, len(w.cells))}
	for i := range w.cells {
		o := w.runCell(i, tr, opBase+i)
		runtime.ReadMemStats(&after)
		o.Slow = m.lap()
		p.Outcomes[i] = o
		p.Wall += o.Wall
		p.Cycles += o.DRAMCycles
		p.Mallocs += after.Mallocs - before.Mallocs
		p.Bytes += after.TotalAlloc - before.TotalAlloc
		runtime.ReadMemStats(&before) // leaves the probe's allocations out
	}
	p.GCs = before.NumGC - gcs
	return p
}

//go:embed expected/*.json
var expectedFS embed.FS

// Expected holds a workload's per-cell digests at the default seed.
type Expected struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Cells    map[string]string `json:"cells"`
}

// loadExpected returns the committed digests of a simulator workload.
func loadExpected(name string) (*Expected, error) {
	data, err := expectedFS.ReadFile(path.Join("expected", name+".json"))
	if err != nil {
		return nil, fmt.Errorf("bench: expected digests: %w", err)
	}
	var e Expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("bench: expected/%s.json: %w", name, err)
	}
	return &e, nil
}

// checker applies the correctness checks to every pass and counts the
// cells that fail any of them.
type checker struct {
	cells     []simCell
	expected  map[string]string // nil skips check (b)
	reference []string          // first pass's digests
	Attempted int
	Failed    int
	Notes     []string
}

func (c *checker) note(format string, a ...any) {
	if len(c.Notes) < 20 {
		c.Notes = append(c.Notes, fmt.Sprintf(format, a...))
	}
}

// check inspects one pass: (c) the run's own faults, (a) digests equal to
// the first pass's, (b) digests equal to the committed ones.
func (c *checker) check(p passResult) {
	first := c.reference == nil
	if first {
		c.reference = make([]string, len(p.Outcomes))
	}
	for i, o := range p.Outcomes {
		c.Attempted++
		name := c.cells[i].Name
		switch {
		case o.Fault != "":
			c.Failed++
			c.note("%s: %s", name, o.Fault)
		case first:
			c.reference[i] = o.Digest
			if want, ok := c.expected[name]; c.expected != nil && (!ok || want != o.Digest) {
				c.Failed++
				c.note("%s: simulated statistics differ from bench/expected (digest %.12s, want %.12s)", name, o.Digest, want)
			}
		case o.Digest != c.reference[i]:
			c.Failed++
			c.note("%s: simulated statistics differ between passes", name)
		}
	}
}

// WriteExpected runs every simulator workload once at the default seed
// and writes its per-cell digests into dir. Re-baselining the expected
// statistics is a change to the benchmark, never part of a speed-up.
func WriteExpected(dir string) error {
	for _, name := range Workloads {
		if name == ServeMixed {
			continue
		}
		w, err := newSimWorkload(name, DefaultSeed, 1)
		if err != nil {
			return err
		}
		e := Expected{Workload: name, Seed: DefaultSeed, Cells: map[string]string{}}
		for i, o := range w.pass(nil, 0, nil).Outcomes {
			if o.Fault != "" {
				return fmt.Errorf("bench: %s %s: %s", name, w.cells[i].Name, o.Fault)
			}
			e.Cells[w.cells[i].Name] = o.Digest
		}
		data, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	return nil
}
