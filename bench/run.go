package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Options selects one benchmark run.
type Options struct {
	// Spec is BENCHMARK.json: the metrics a run must report, with their
	// units.
	Spec     *Spec
	Workload string
	Seed     int64
	// Seconds is how long the run measures.
	Seconds float64
	// Trace makes the separate traced run that yields the per-layer
	// metrics; end-to-end metrics are always taken with it off.
	Trace bool
	// OutDir receives the trace file and holds the run's temporary
	// directories (bench/out).
	OutDir string
	// Size scales every workload down for tests (1 in benchmark runs).
	Size float64
	// Expected overrides the committed per-cell digests (tests); nil
	// uses bench/expected at the default seed and full size, and skips
	// check (b) otherwise.
	Expected map[string]string
}

const (
	// setups is how many times a run repeats its set-up at least, and
	// setupFor how long: setup_s is the median, so one slow set-up does not
	// decide it, and a set-up of a fraction of a millisecond (the workloads
	// without baselines) is repeated some hundred times.
	setups   = 5
	setupFor = 100 * time.Millisecond
	// serveSetups is the same for serve_mixed, whose set-up leans on the
	// disk.
	serveSetups = 7
	// minPasses is the fewest timed passes a run accepts.
	minPasses = 5
)

// Run executes one workload and reports its metrics.
func Run(opt Options) (*Report, error) {
	if opt.Size <= 0 {
		opt.Size = 1
	}
	if opt.Spec == nil {
		return nil, fmt.Errorf("bench: no benchmark contract (BENCHMARK.json) given")
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	switch {
	case opt.Workload == ServeMixed && opt.Trace:
		return traceServe(opt)
	case opt.Workload == ServeMixed:
		return runServe(opt)
	case opt.Trace:
		return traceSim(opt)
	default:
		return runSim(opt)
	}
}

// budget is what each layer driver may spend.
func (opt Options) budget() driverBudget {
	if opt.Size < 1 {
		return driverBudget{Ops: 2000, Time: 5 * time.Millisecond}
	}
	return fullBudget
}

// expectedFor resolves the digests check (b) compares against.
func expectedFor(opt Options) (map[string]string, error) {
	if opt.Expected != nil {
		return opt.Expected, nil
	}
	if opt.Seed != DefaultSeed || opt.Size != 1 {
		return nil, nil // an unseen seed keeps checks (a), (c) and (d)
	}
	e, err := loadExpected(opt.Workload)
	if err != nil {
		return nil, err
	}
	return e.Cells, nil
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runSim is the end-to-end run of a simulator workload: set up (several
// times over), one untimed warm-up pass, then timed passes for the requested
// time. Every host time is divided by the host's slowness around it
// (hostprobe.go).
func runSim(opt Options) (*Report, error) {
	rep := newReport(opt)
	meter, err := newHostMeter()
	if err != nil {
		return nil, err
	}
	defer meter.Close()
	var (
		w        *simWorkload
		expected map[string]string
		setupS   []float64
	)
	for k, begin := 0, time.Now(); k < setups || time.Since(begin) < setupFor; k++ {
		start := time.Now()
		if expected, err = expectedFor(opt); err != nil {
			return nil, err
		}
		if w, err = newSimWorkload(opt.Workload, opt.Seed, opt.Size); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	// Baselines are simulations and slow down with the host like any cell.
	// A set-up without them builds the cell list and parses the expected
	// digests in tens of microseconds out of the caches: the probe, which
	// measures the memory system, says nothing about it, and it is reported
	// as measured.
	setupSlow := 1.0
	if w.runner != nil {
		setupSlow = meter.lap()
	}
	chk := &checker{cells: w.cells, expected: expected}
	warm := w.pass(nil, 0, meter)
	chk.check(warm)

	var allocs, kb, rawPassS, mcycles, perKcycle, bytesPerKcycle []float64
	n := float64(len(w.cells))
	cellMS := make([][]float64, len(w.cells)) // per cell, its normalised wall time in every pass
	for start := time.Now(); len(rawPassS) < minPasses || time.Since(start).Seconds() < opt.Seconds; {
		p := w.pass(nil, 0, meter)
		chk.check(p)
		rawPassS = append(rawPassS, p.Wall.Seconds())
		allocs = append(allocs, float64(p.Mallocs)/n)
		kb = append(kb, float64(p.Bytes)/1024/n)
		var passS float64
		for i, o := range p.Outcomes {
			cellMS[i] = append(cellMS[i], float64(o.Wall)/1e6/o.Slow)
			passS += o.Wall.Seconds() / o.Slow
		}
		if p.Cycles > 0 {
			mcycles = append(mcycles, float64(p.Cycles)/1e6/passS)
			perKcycle = append(perKcycle, float64(p.Mallocs)*1000/float64(p.Cycles))
			bytesPerKcycle = append(bytesPerKcycle, float64(p.Bytes)*1000/float64(p.Cycles))
		}
	}
	// Interference on the sandbox also comes in bursts that hit some cells
	// of some passes. Each cell's median over the passes drops the hit
	// instances; a whole pass's wall time cannot, it always contains a few.
	typical := make([]float64, len(cellMS))
	var passMS float64
	for i, ms := range cellMS {
		typical[i] = median(ms)
		passMS += typical[i]
	}
	rep.set("cells_per_s", n*1000/passMS)
	rep.set("cell_p50_ms", rep.sample("cell_ms", typical).Median)
	rep.set("allocs_per_cell", rep.sample("allocs_per_cell", allocs).Median)
	rep.set("alloc_kb_per_cell", rep.sample("alloc_kb_per_cell", kb).Median)
	rep.set("max_rss_mb", maxRSSMiB())
	rep.set("setup_s", rep.sample("setup_s.raw", setupS).Median/setupSlow)
	rep.detail("host_slowness", rep.sample("host_slowness", meter.Laps).Median, "ratio")
	rep.detail("cells_per_s.raw", n/rep.sample("pass_s.raw", rawPassS).Median, "1/s")
	rep.detail("sim_mcycles_per_s", rep.sample("sim_mcycles_per_s", mcycles).Median, "Mcycle/s")
	rep.detail("allocs_per_kcycle", median(perKcycle), "count")
	rep.detail("alloc_bytes_per_kcycle", median(bytesPerKcycle), "B")
	rep.detail("cells_per_pass", n, "count")
	rep.detail("kcycles_per_pass", float64(warm.Cycles)/1e3, "kcycle")
	return rep, rep.finish(chk.Attempted, chk.Failed, chk.Notes)
}

// runServe is the end-to-end run of serve_mixed. The host is probed around
// every set-up and after every cold request, and the set-up times and cold
// latencies are scaled by the slowness around them. The hit phase runs on
// both cores through the loopback stack, and no probe tried follows its
// speed; its rate and latency did not repeat within a tenth from run to
// run, so they are reported as measured, in the detail and by the traced
// run, and the end-to-end metrics take from it only the allocation counts.
func runServe(opt Options) (*Report, error) {
	rep := newReport(opt)
	sizes := opt.shrink(defaultServeSizes(opt.Seconds))
	meter, err := newHostMeter()
	if err != nil {
		return nil, err
	}
	defer meter.Close()
	var (
		env          *serveEnv
		setupS, rawS []float64
	)
	for k := 0; k < serveSetups; k++ {
		if env != nil {
			env.Close()
			meter.lap()
		}
		start := time.Now()
		if env, err = newServeEnv(opt.OutDir, opt.Seed, sizes.Records, nil); err != nil {
			return nil, err
		}
		raw := time.Since(start).Seconds()
		rawS = append(rawS, raw)
		setupS = append(setupS, raw/meter.lap())
	}
	defer env.Close()

	r := newServeRun(env, opt.Seed, sizes)
	r.cold(nil, 0, sizes.Cold, meter)
	r.join(nil)
	hit := r.hit(nil, sizes.HitFor)
	if len(r.ColdNormMS) == 0 || len(hit.US) == 0 {
		return nil, fmt.Errorf("bench: serve_mixed completed nothing: %v", r.Notes)
	}

	var coldS float64
	for _, ms := range r.ColdNormMS {
		coldS += ms / 1e3
	}
	hits := float64(len(hit.US))
	rep.set("cells_per_s", float64(len(r.ColdNormMS))/coldS)
	rep.set("cell_p50_ms", rep.sample("miss_ms", r.ColdNormMS).Median)
	rep.set("allocs_per_cell", float64(hit.Mallocs)/hits)
	rep.set("alloc_kb_per_cell", float64(hit.Bytes)/1024/hits)
	rep.set("max_rss_mb", maxRSSMiB())
	rep.set("setup_s", rep.sample("setup_s", setupS).Median)
	rep.sample("setup_s.raw", rawS)
	rep.detail("host_slowness", rep.sample("host_slowness", meter.Laps).Median, "ratio")
	rep.detail("miss_p50_ms.raw", rep.sample("miss_ms.raw", r.ColdMS).Median, "ms")
	if p, ok := TailPercentile(len(r.ColdNormMS)); ok {
		rep.detail(fmt.Sprintf("miss_p%g_ms", p*100), Percentile(r.ColdNormMS, p), "ms")
	}
	rep.detail("hit_req_per_s.raw", hits/hit.Wall.Seconds(), "1/s")
	rep.detail("hit_p50_ms.raw", rep.sample("hit_us.raw", hit.US).Median/1e3, "ms")
	if p, ok := TailPercentile(len(hit.US)); ok {
		rep.detail(fmt.Sprintf("hit_p%g_ms.raw", p*100), Percentile(hit.US, p)/1e3, "ms")
	}
	rep.detail("join_overhead_ms", rep.sample("join_overhead_ms", r.JoinOverheadMS).Median, "ms")
	return rep, rep.finish(r.Attempted, r.Failed, r.Notes)
}

// count is n at full size, shrunk with Size for tests but never below floor.
func (opt Options) count(n, floor int) int {
	return max(floor, int(float64(n)*opt.Size))
}

// shrink scales a serve shape down for tests; at full size it is s.
func (opt Options) shrink(s serveSizes) serveSizes {
	if opt.Size < 1 {
		s.Records, s.Cold, s.Joins = opt.count(s.Records, 20), opt.count(s.Cold, 4), opt.count(s.Joins, 2)
		s.HitFor = time.Duration(float64(s.HitFor) * opt.Size)
		s.Scale *= opt.Size * 4
	}
	return s
}

// profiled runs fn under the CPU profiler and returns its samples.
func profiled(fn func()) ([]StackSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("bench: CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return ParseCPUProfile(buf.Bytes())
}

// writeTrace writes the run's spans to its trace file and puts each span
// name's self time (duration minus what its children cover) in the detail.
func (r *Report) writeTrace(opt Options, spans []Span) error {
	for name, ns := range SelfTimeByName(spans) {
		r.detail("span_self_ms."+name, float64(ns)/1e6, "ms")
	}
	return WriteTrace(filepath.Join(opt.OutDir, opt.Workload+".trace.json"), spans)
}

// setShares reports the profile's per-layer CPU shares.
func (r *Report) setShares(samples []StackSample) {
	shares := LayerShares(samples)
	for _, layer := range CPULayers {
		name := layer + ".cpu_share"
		switch layer {
		case LayerGC, LayerMalloc, LayerOther:
			name = layer + "_cpu_share"
		}
		r.set(name, shares[layer])
	}
	r.detail("cpu_profile_samples", float64(len(samples)), "count")
}

// traceSim is the traced run of a simulator workload: passes with spans,
// telemetry and the CPU profiler on, alternating with plain passes whose
// times give the tracing overhead; then the drivers of the layers the
// workload exercises, on its own request streams.
func traceSim(opt Options) (*Report, error) {
	expected, err := expectedFor(opt)
	if err != nil {
		return nil, err
	}
	rep := newReport(opt)
	w, err := newSimWorkload(opt.Workload, opt.Seed, opt.Size)
	if err != nil {
		return nil, err
	}
	chk := &checker{cells: w.cells, expected: expected}
	chk.check(w.pass(nil, 0, nil))

	tr := NewTracer()
	var (
		samples        []StackSample
		plainS, traceS []float64
		mcycles, gcs   []float64
		last           passResult
	)
	for start, round := time.Now(), 0; round < 2 || time.Since(start).Seconds() < opt.Seconds/2; round++ {
		plain := w.pass(nil, 0, nil)
		chk.check(plain)
		plainS = append(plainS, plain.Wall.Seconds())

		telemetry.Enable(true)
		got, err := profiled(func() { last = w.pass(tr, round*len(w.cells), nil) })
		telemetry.Enable(false)
		if err != nil {
			return nil, err
		}
		// Observers must be observer-only: the traced pass's statistics
		// are held to the same digests.
		chk.check(last)
		samples = append(samples, got...)
		traceS = append(traceS, last.Wall.Seconds())
		gcs = append(gcs, float64(last.GCs))
		if last.Cycles > 0 {
			mcycles = append(mcycles, float64(last.Cycles)/1e6/last.Wall.Seconds())
		}
	}
	rep.setShares(samples)
	rep.set("host.gc_count_per_pass", median(gcs))
	rep.set("sim.mcycles_per_s", rep.sample("sim.mcycles_per_s", mcycles).Median)
	rep.set("trace.overhead_share", median(traceS)/median(plainS)-1)
	rep.sample("pass_s.plain", plainS)
	rep.sample("pass_s.traced", traceS)

	// Counts and sim.New/System.Run spans need direct runs; the harness
	// hides them, so coexec_saturated runs its cells once more directly.
	direct := last.Outcomes
	if w.runner != nil {
		telemetry.Enable(true)
		direct = make([]cellOutcome, len(w.cells))
		for i, c := range w.cells {
			direct[i] = runDirect(c, tr, -1-i)
		}
		telemetry.Enable(false)
	}
	if err := rep.setSimLayers(w.cells, direct, tr.Spans()); err != nil {
		return nil, err
	}
	if err := rep.setDrivers(w.cells, opt.budget()); err != nil {
		return nil, err
	}
	if err := rep.writeTrace(opt, tr.Spans()); err != nil {
		return nil, err
	}
	return rep, rep.finish(chk.Attempted, chk.Failed, chk.Notes)
}

// setSimLayers reports the span- and count-derived metrics of the
// simulator layers from directly run cells.
func (r *Report) setSimLayers(cells []simCell, direct []cellOutcome, spans []Span) error {
	newNS, runNS := Durations(spans, "sim.New"), Durations(spans, "System.Run")
	if len(newNS) == 0 || len(runNS) == 0 {
		return fmt.Errorf("bench: trace lacks simulator spans")
	}
	// Only cells that go through the harness have a pre-run part.
	if prerun := Durations(spans, "experiments.prerun"); len(prerun) > 0 {
		var sum float64
		for _, d := range prerun {
			sum += d
		}
		r.set("experiments.prerun_ms_per_cell", sum/1e6/float64(len(prerun)))
	}
	r.set("sim.new_ms", r.sample("sim.new_ns", newNS).Median/1e6)
	r.set("sim.run_ms_p50", r.sample("sim.run_ns", runNS).Median/1e6)

	var (
		gpuCycles, dramCycles, smCycles, stalls float64
		completed, injected, rejected           float64
		chanCycles                              float64
		runWall                                 float64
	)
	var tot struct {
		reqs, switches, memToPIM, drain, rowHits, rowMisses, pimHits, pimMisses float64
		active, busy, memQ, pimQ, sampled                                       float64
	}
	for i, o := range direct {
		res := o.Result
		if res == nil {
			continue
		}
		descs, err := cells[i].descs()
		if err != nil {
			return err
		}
		gpuCycles += float64(res.GPUCycles)
		dramCycles += float64(res.DRAMCycles)
		chanCycles += float64(res.DRAMCycles) * float64(len(res.Stats.Channels))
		for k, kr := range res.Kernels {
			stalls += float64(kr.StallCycles)
			smCycles += float64(res.GPUCycles) * float64(len(descs[k].SMs))
		}
		for _, a := range res.Stats.Apps {
			completed += float64(a.Completed)
		}
		if noc := res.Telemetry.NoC(); noc != nil {
			injected += float64(noc.Injected.Value())
			rejected += float64(noc.Rejected.Value())
		}
		c := res.Stats.TotalChannel()
		tot.reqs += float64(c.MemReads + c.MemWrites + c.PIMOps)
		tot.switches += float64(c.Switches)
		tot.memToPIM += float64(c.MemToPIMSwitches)
		tot.drain += float64(c.DrainLatencySum)
		tot.rowHits += float64(c.RowHits)
		tot.rowMisses += float64(c.RowMisses)
		tot.pimHits += float64(c.PIMRowHits)
		tot.pimMisses += float64(c.PIMRowMisses)
		tot.active += float64(c.ActiveCycles)
		tot.busy += float64(c.BankBusySum)
		tot.memQ += float64(c.MemQOccupancySum)
		tot.pimQ += float64(c.PIMQOccupancySum)
		tot.sampled += float64(c.SampledCycles)
	}
	for _, d := range runNS {
		runWall += d
	}
	if dramCycles == 0 || completed == 0 {
		return fmt.Errorf("bench: directly run cells simulated nothing")
	}
	// The Run spans may cover more passes than the counted cells; scale
	// the requests to the spans.
	runsPerCell := float64(len(runNS)) / float64(len(direct))
	r.set("sim.host_ns_per_request", runWall/(completed*runsPerCell))
	r.set("gpu.stall_cycle_share", ratio(stalls, smCycles))
	r.set("noc.injected", injected)
	r.set("noc.rejected_share", ratio(rejected, injected+rejected))
	r.set("memctrl.requests", tot.reqs)
	r.set("memctrl.switches_per_kcycle", tot.switches*1000/chanCycles)
	r.set("memctrl.drain_cycles_per_switch", ratio(tot.drain, tot.memToPIM))
	r.set("memctrl.avg_memq", ratio(tot.memQ, tot.sampled))
	r.set("memctrl.avg_pimq", ratio(tot.pimQ, tot.sampled))
	r.set("dram.row_hit_ratio", ratio(tot.rowHits, tot.rowHits+tot.rowMisses))
	r.set("dram.pim_row_hit_ratio", ratio(tot.pimHits, tot.pimHits+tot.pimMisses))
	r.set("dram.blp", ratio(tot.busy, tot.active))
	r.set("dram.active_cycle_share", tot.active/chanCycles)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setDrivers runs the simulator layer drivers on the cells' streams.
func (r *Report) setDrivers(cells []simCell, budget driverBudget) error {
	st, err := newStreams(cells, budget)
	if err != nil {
		return err
	}
	r.set("workload.ns_per_request", st.driveWorkload())
	r.set("addrmap.ns_per_decode", st.driveAddrmap())
	r.set("gpu.ns_per_tick", st.driveGPU())
	r.set("noc.ns_per_tick", st.driveNoC())
	r.set("policy.ns_per_decision", st.drivePolicy())
	if mem := st.flat(false, 0); len(mem) > 0 { // a PIM-only workload never reaches the L2
		r.set("cache.ns_per_access", st.driveCache(mem))
	}
	tick, nextEvent, err := st.driveMemctrl()
	if err != nil {
		return err
	}
	r.set("memctrl.ns_per_tick", tick)
	r.set("memctrl.ns_per_nextevent", nextEvent)
	dramNS, err := st.driveDRAM()
	if err != nil {
		return err
	}
	r.set("dram.ns_per_command", dramNS)
	return nil
}

// setServeLayers reports the service metrics from a run of the phases and
// from the service-layer drivers.
func (rep *Report) setServeLayers(r *serveRun, hit hitResult, opt Options) error {
	if len(r.ColdMS) == 0 || len(hit.US) == 0 || len(r.JoinOverheadMS) == 0 {
		return fmt.Errorf("bench: service phases completed nothing: %v", r.Notes)
	}
	reqs := make([]serve.Request, min(r.sizes.Cold, 48))
	for i := range reqs {
		reqs[i] = r.request(i)
	}
	canonUS, digestUS, lookupUS, err := driveServeFuncs(reqs, opt.budget())
	if err != nil {
		return err
	}
	hitUS := rep.sample("serve.hit_us", hit.US)
	rep.set("serve.canonicalize_us", canonUS)
	rep.set("serve.digest_us", digestUS)
	rep.set("serve.cache_lookup_us", lookupUS)
	rep.set("serve.hit_p50_us", hitUS.Median)
	rep.set("serve.http_hit_us", hitUS.Median-canonUS-digestUS-lookupUS)
	rep.set("serve.hit_req_per_s", float64(len(hit.US))/hit.Wall.Seconds())
	rep.set("serve.allocs_per_hit", float64(hit.Mallocs)/float64(len(hit.US)))
	tail := func(name string, xs []float64, scale float64) {
		p, ok := TailPercentile(len(xs))
		if !ok {
			p = 0.5
		}
		rep.set(name, Percentile(xs, p)/scale)
		rep.detail(name+".percentile", p*100, "%")
	}
	tail("serve.hit_tail_ms", hit.US, 1e3)
	tail("serve.miss_tail_ms", r.ColdMS, 1)
	coldMS := rep.sample("serve.miss_ms", r.ColdMS)
	var runSum, overhead float64
	for i, ms := range r.ColdRunMS {
		runSum += ms
		overhead += r.ColdMS[i] - ms
	}
	n := float64(len(r.ColdMS))
	rep.set("serve.miss_p50_ms", coldMS.Median)
	rep.set("serve.run_ms_mean", runSum/n)
	rep.set("serve.miss_overhead_ms", overhead/n)
	rep.set("serve.join_overhead_ms", rep.sample("serve.join_overhead_ms", r.JoinOverheadMS).Median)
	rep.set("serve.duplicate_sims", float64(r.DuplicateSims))
	rep.set("serve.hit_rate", r.env.srv.MetricsSnapshot().Cache.HitRate)

	syncN, nosyncN, replayN := opt.count(100, 5), opt.count(2000, 50), opt.count(2000, 50)
	for _, d := range []struct {
		name string
		run  func() (float64, error)
	}{
		{"serve.store.put_ms_sync", func() (float64, error) { return driveStorePut(opt.OutDir, true, syncN) }},
		{"serve.store.put_ms_nosync", func() (float64, error) { return driveStorePut(opt.OutDir, false, nosyncN) }},
		{"serve.store.replay_records_per_s", func() (float64, error) { return driveStoreReplay(opt.OutDir, replayN) }},
		{"journal.append_us_sync", func() (float64, error) { return driveJournalAppend(opt.OutDir, true, syncN) }},
		{"journal.append_us_nosync", func() (float64, error) { return driveJournalAppend(opt.OutDir, false, nosyncN) }},
	} {
		v, err := d.run()
		if err != nil {
			return err
		}
		rep.set(d.name, v)
	}
	return nil
}

// traceServe is the traced run of serve_mixed: the phases under spans and
// the CPU profiler, a plain hit phase for the tracing overhead, then the
// service-layer drivers.
func traceServe(opt Options) (*Report, error) {
	rep := newReport(opt)
	sizes := opt.shrink(defaultServeSizes(opt.Seconds))
	tr := NewTracer()
	env, err := newServeEnv(opt.OutDir, opt.Seed, sizes.Records, tr)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	r := newServeRun(env, opt.Seed, sizes)
	var plain, hit hitResult
	samples, err := profiled(func() {
		r.cold(tr, 0, sizes.Cold, nil)
		r.join(tr)
	})
	if err != nil {
		return nil, err
	}
	plain = r.hit(nil, sizes.HitFor/3)
	hitSamples, err := profiled(func() { hit = r.hit(tr, sizes.HitFor*2/3) })
	if err != nil {
		return nil, err
	}
	rep.setShares(append(samples, hitSamples...))
	rep.set("host.gc_count_per_pass", float64(hit.GCs))
	if len(plain.US) == 0 || len(hit.US) == 0 {
		return nil, fmt.Errorf("bench: serve_mixed hit phase completed nothing: %v", r.Notes)
	}
	rep.set("trace.overhead_share", median(hit.US)/median(plain.US)-1)
	if err := rep.setServeLayers(r, hit, opt); err != nil {
		return nil, err
	}
	if err := rep.writeTrace(opt, tr.Spans()); err != nil {
		return nil, err
	}
	return rep, rep.finish(r.Attempted, r.Failed, r.Notes)
}
