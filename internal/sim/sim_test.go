package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

func testCfg() config.Config {
	cfg := config.Scaled()
	cfg.MaxGPUCycles = 3_000_000
	return cfg
}

func gpuDesc(t *testing.T, id string, sms []int, scale float64) KernelDesc {
	t.Helper()
	p, err := workload.GPUProfileByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return KernelDesc{GPU: &p, SMs: sms, Scale: scale}
}

func pimDesc(t *testing.T, id string, sms []int, scale float64) KernelDesc {
	t.Helper()
	p, err := workload.PIMProfileByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return KernelDesc{PIM: &p, SMs: sms, Scale: scale, Base: 512 << 20}
}

func mustRun(t *testing.T, cfg config.Config, policy string, descs []KernelDesc) *Result {
	t.Helper()
	sys, err := New(cfg, core.Factory(policy, cfg.Sched), descs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGPUAndPIMSMs pins the co-execution split of Table I: the GPU kernel
// gets the first 72 of 80 SMs, the PIM kernel the last 8.
func TestGPUAndPIMSMs(t *testing.T) {
	gpuSMs, pimSMs := GPUAndPIMSMs(config.Paper())
	if len(gpuSMs) != 72 || gpuSMs[71] != 71 || len(pimSMs) != 8 || pimSMs[0] != 72 || pimSMs[7] != 79 {
		t.Errorf("split = %v / %v, want SMs 0..71 / 72..79", gpuSMs, pimSMs)
	}
}

func TestStandaloneGPUKernelCompletes(t *testing.T) {
	cfg := testCfg()
	res := mustRun(t, cfg, "fr-fcfs", []KernelDesc{gpuDesc(t, "G8", SomeSMs(cfg, cfg.GPU.NumSMs), 0.3)})
	if res.Aborted {
		t.Fatalf("standalone GPU run aborted: %+v", res.Kernels[0])
	}
	k := res.Kernels[0]
	if !k.Finished {
		t.Fatalf("kernel did not finish: %+v", k)
	}
	if k.Completed != k.Total {
		t.Fatalf("completed %d of %d", k.Completed, k.Total)
	}
	t.Logf("G8 standalone: %d requests in %d GPU cycles (%.1f req/kcycle), RBHR %.2f",
		k.Total, k.FirstFinish, res.Stats.MCArrivalRate(0), res.Stats.TotalChannel().RBHR())
}

func TestStandalonePIMKernelCompletes(t *testing.T) {
	cfg := testCfg()
	_, pimSMs := GPUAndPIMSMs(cfg)
	res := mustRun(t, cfg, "fr-fcfs", []KernelDesc{pimDesc(t, "P1", pimSMs, 0.3)})
	if res.Aborted {
		t.Fatalf("standalone PIM run aborted: %+v", res.Kernels[0])
	}
	k := res.Kernels[0]
	if !k.Finished {
		t.Fatalf("kernel did not finish: %+v", k)
	}
	tc := res.Stats.TotalChannel()
	if tc.PIMOps == 0 {
		t.Fatal("no PIM ops executed")
	}
	// All-bank lockstep execution: BLP must equal the bank count.
	if blp := tc.BLP(); blp < float64(cfg.Memory.Banks)*0.9 {
		t.Errorf("PIM BLP = %.2f, want close to %d", blp, cfg.Memory.Banks)
	}
	// Block structure yields high lockstep row locality.
	pimLoc := float64(tc.PIMRowHits) / float64(tc.PIMRowHits+tc.PIMRowMisses)
	if pimLoc < 0.8 {
		t.Errorf("PIM row locality = %.3f, want > 0.8", pimLoc)
	}
	t.Logf("P1 standalone: %d ops in %d GPU cycles, locality %.3f", k.Total, k.FirstFinish, pimLoc)
}

func TestCompetitiveCoExecutionCompletes(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	for _, policy := range []string{"fcfs", "fr-fcfs", "fr-rr-fcfs", "f3fs"} {
		t.Run(policy, func(t *testing.T) {
			res := mustRun(t, cfg, policy, []KernelDesc{
				gpuDesc(t, "G8", gpuSMs, 0.3),
				pimDesc(t, "P2", pimSMs, 0.3),
			})
			for _, k := range res.Kernels {
				if !k.Finished {
					t.Errorf("%s: kernel %s did not finish (completed %d/%d, aborted=%v)",
						policy, k.Label, k.Completed, k.Total, res.Aborted)
				}
			}
			tc := res.Stats.TotalChannel()
			if tc.Switches == 0 {
				t.Errorf("%s: no mode switches in co-execution", policy)
			}
			t.Logf("%s: gpu=%d cycles, switches=%d, drain/switch=%.1f",
				policy, res.GPUCycles, tc.Switches, tc.DrainPerSwitch())
		})
	}
}

func TestL1FiltersTraffic(t *testing.T) {
	base := testCfg()
	run := func(l1 bool) *Result {
		cfg := base
		if !l1 {
			cfg.Cache.L1Bytes = 0
		}
		return mustRun(t, cfg, "fr-fcfs", []KernelDesc{gpuDesc(t, "G8", SomeSMs(cfg, cfg.GPU.NumSMs), 0.2)})
	}
	with := run(true)
	without := run(false)
	if !with.Kernels[0].Finished || !without.Kernels[0].Finished {
		t.Fatal("runs did not finish")
	}
	// Same kernel work, but the L1 absorbs reuse before the NoC.
	if with.Stats.Apps[0].NoCInjected >= without.Stats.Apps[0].NoCInjected {
		t.Errorf("L1 did not filter interconnect traffic: %d vs %d",
			with.Stats.Apps[0].NoCInjected, without.Stats.Apps[0].NoCInjected)
	}
	// Completion accounting is preserved in both configurations.
	for _, res := range []*Result{with, without} {
		if res.Kernels[0].Completed != res.Kernels[0].Total {
			t.Errorf("completed %d of %d", res.Kernels[0].Completed, res.Kernels[0].Total)
		}
	}
}

// TestL1WritebackThroughL2DoesNotLeak reproduces the MSHR-leak scenario:
// a write-heavy kernel whose dirty L1 evictions miss in the L2 must still
// complete every request (the L1 writeback becomes an L2 fetch primary
// whose completion must fill the L2).
func TestL1WritebackThroughL2DoesNotLeak(t *testing.T) {
	cfg := testCfg()
	p, err := workload.GPUProfileByID("G5") // 60% reads: heavy store traffic
	if err != nil {
		t.Fatal(err)
	}
	p.Reuse = 0.6 // churn the L1 with re-written lines
	res := mustRun(t, cfg, "fr-fcfs", []KernelDesc{{GPU: &p, SMs: SomeSMs(cfg, cfg.GPU.NumSMs), Scale: 0.3}})
	k := res.Kernels[0]
	if !k.Finished || k.Completed != k.Total {
		t.Fatalf("write-heavy kernel leaked requests: %d of %d (aborted=%v)",
			k.Completed, k.Total, res.Aborted)
	}
}

// TestSamplingTimeline checks the run's time series (the telemetry epoch
// sampler): points sit on the interval grid except the terminal one, time
// and every cumulative field are monotonic — per-app completions included,
// across kernel relaunches — and queue state is in range.
func TestSamplingTimeline(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.1),
		pimDesc(t, "P1", pimSMs, 0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTelemetry(1000, 0)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	snaps := res.Telemetry.Sampler.Snapshots()
	if len(snaps) < 3 {
		t.Fatalf("samples = %d over %d cycles", len(snaps), res.GPUCycles)
	}
	if last := snaps[len(snaps)-1]; last.GPUCycle != res.GPUCycles {
		t.Errorf("terminal sample at cycle %d, run ended at %d", last.GPUCycle, res.GPUCycles)
	}
	relaunched := false
	for _, k := range res.Kernels {
		relaunched = relaunched || k.Runs > 1
	}
	if !relaunched {
		t.Error("no kernel relaunched: monotonicity across a relaunch not exercised")
	}
	for i, s := range snaps {
		if i < len(snaps)-1 && s.GPUCycle%1000 != 0 {
			t.Errorf("sample %d at off-interval cycle %d", i, s.GPUCycle)
		}
		if len(s.Apps) != 2 || len(s.Channels) != cfg.Memory.Channels {
			t.Fatalf("sample %d has %d apps, %d channels", i, len(s.Apps), len(s.Channels))
		}
		for ch, c := range s.Channels {
			if c.MemQ < 0 || c.MemQ > cfg.Memory.MemQSize || c.PIMQ < 0 || c.PIMQ > cfg.Memory.PIMQSize {
				t.Errorf("sample %d channel %d: queue occupancy %d/%d out of range", i, ch, c.MemQ, c.PIMQ)
			}
		}
		if i == 0 {
			continue
		}
		prev := snaps[i-1]
		if s.GPUCycle < prev.GPUCycle || (s.GPUCycle == prev.GPUCycle && i < len(snaps)-1) {
			t.Errorf("sample %d at cycle %d follows cycle %d", i, s.GPUCycle, prev.GPUCycle)
		}
		for app := range s.Apps {
			if s.Apps[app].Completed < prev.Apps[app].Completed {
				t.Errorf("sample %d: app %d completions went backwards (%d -> %d)",
					i, app, prev.Apps[app].Completed, s.Apps[app].Completed)
			}
		}
		for ch := range s.Channels {
			if s.Channels[ch].Switches < prev.Channels[ch].Switches {
				t.Errorf("sample %d: channel %d switch counter went backwards", i, ch)
			}
		}
	}
}

// TestOracleNeverSkips pins what useTickLoop means: after a whole run on
// the every-cycle schedule no kernel or controller wake-up cycle has ever
// advanced and no L2 intake has ever parked — every gate stayed open for
// every cycle — while the same cells on the production schedule did put
// components to sleep (a sparse cell its kernels and controllers, a
// saturated one its intakes).
func TestOracleNeverSkips(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	// A compute-intensive kernel alone: long idle stretches.
	sparse := []KernelDesc{gpuDesc(t, "G17", SomeSMs(cfg, cfg.GPU.NumSMs), 0.05)}
	// MEM and PIM in contention: full queues between the crossbar and DRAM.
	saturated := []KernelDesc{gpuDesc(t, "G8", gpuSMs, 0.05), pimDesc(t, "P1", pimSMs, 0.05)}
	gates := func(tick bool, descs []KernelDesc) (advanced, parked int) {
		sys, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), descs)
		if err != nil {
			t.Fatal(err)
		}
		if tick {
			sys.useTickLoop()
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		for _, at := range sys.kNext {
			if at != 0 {
				advanced++
			}
		}
		for _, at := range sys.mcNext {
			if at != 0 {
				advanced++
			}
		}
		for _, p := range sys.intake {
			if p != (parkedIntake{}) { // unparking leaves the rest of the record behind
				parked++
			}
		}
		return advanced, parked
	}
	for _, cell := range []struct {
		name  string
		descs []KernelDesc
	}{{"sparse", sparse}, {"saturated", saturated}} {
		if advanced, parked := gates(true, cell.descs); advanced != 0 || parked != 0 {
			t.Errorf("%s: every-cycle schedule advanced %d wake-up cycles and parked %d intakes; the oracle skipped", cell.name, advanced, parked)
		}
	}
	if advanced, _ := gates(false, sparse); advanced == 0 {
		t.Error("production schedule advanced no wake-up cycle on a sparse cell")
	}
	if _, parked := gates(false, saturated); parked == 0 {
		t.Error("production schedule parked no L2 intake on a saturated cell")
	}
}

func TestIPolyMappingRuns(t *testing.T) {
	cfg := testCfg()
	cfg.Memory.Mapping = config.MapIPoly
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	res := mustRun(t, cfg, "fr-fcfs", []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.1),
		pimDesc(t, "P2", pimSMs, 0.1),
	})
	for _, k := range res.Kernels {
		if !k.Finished {
			t.Errorf("kernel %s unfinished under I-poly mapping", k.Label)
		}
	}
	// PIM warps still pin to their channels (the generator inverts the
	// hash), so lockstep execution stays per channel.
	if res.Stats.TotalChannel().PIMOps == 0 {
		t.Error("no PIM ops under I-poly mapping")
	}
}

func TestVC2ReducesMEMDenialUnderPIMFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("PIM-flood comparison takes seconds; skipped in -short mode")
	}
	base := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(base)
	run := func(mode config.VCMode) *Result {
		cfg := base
		cfg.NoC.Mode = mode
		return mustRun(t, cfg, "mem-first", []KernelDesc{
			gpuDesc(t, "G8", gpuSMs, 0.25),
			pimDesc(t, "P1", pimSMs, 0.25),
		})
	}
	vc1 := run(config.VC1)
	vc2 := run(config.VC2)
	// MEM-First suffers most from PIM head-of-line blocking under VC1;
	// VC2 should raise the GPU kernel's MC arrival rate (Fig. 6).
	r1 := vc1.Stats.MCArrivalRate(0)
	r2 := vc2.Stats.MCArrivalRate(0)
	t.Logf("MEM arrival rate: VC1 %.2f, VC2 %.2f req/kcycle", r1, r2)
	if r2 <= r1 {
		t.Errorf("VC2 did not improve MEM arrival rate: VC1 %.2f >= VC2 %.2f", r1, r2)
	}
}
