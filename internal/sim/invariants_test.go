package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sched"
)

// TestDeterminism: identical configurations and seeds must produce
// bit-identical runs — the foundation for every speedup comparison.
func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := testCfg()
		gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
		return mustRun(t, cfg, "f3fs", []KernelDesc{
			gpuDesc(t, "G4", gpuSMs, 0.2),
			pimDesc(t, "P3", pimSMs, 0.2),
		})
	}
	a, b := run(), run()
	if a.GPUCycles != b.GPUCycles || a.DRAMCycles != b.DRAMCycles {
		t.Fatalf("cycle counts differ: %d/%d vs %d/%d", a.GPUCycles, a.DRAMCycles, b.GPUCycles, b.DRAMCycles)
	}
	for i := range a.Kernels {
		if a.Kernels[i].FirstFinish != b.Kernels[i].FirstFinish {
			t.Errorf("kernel %d finish differs: %d vs %d", i, a.Kernels[i].FirstFinish, b.Kernels[i].FirstFinish)
		}
	}
	ta, tb := a.Stats.TotalChannel(), b.Stats.TotalChannel()
	if ta != tb {
		t.Errorf("channel stats differ:\n%+v\n%+v", ta, tb)
	}
}

// TestRequestConservation: on a finished run every issued request
// completed, and the DRAM-side command counts cover the app requests
// that reached the controller.
func TestRequestConservation(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	res := mustRun(t, cfg, "fr-fcfs", []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.2),
		pimDesc(t, "P1", pimSMs, 0.2),
	})
	for _, k := range res.Kernels {
		if !k.Finished {
			t.Fatalf("kernel %s unfinished", k.Label)
		}
		// The simulation stops the instant the last kernel finishes;
		// a kernel that was relaunched to keep generating contention
		// may be mid-run, so completed <= issued, never more.
		if k.Completed > k.Issued {
			t.Errorf("%s: %d completed exceeds %d issued", k.Label, k.Completed, k.Issued)
		}
		if k.Runs == 1 && k.Completed != k.Issued {
			t.Errorf("%s: single-run kernel left %d of %d in flight",
				k.Label, k.Issued-k.Completed, k.Issued)
		}
	}
	tc := res.Stats.TotalChannel()
	// Every completed PIM request executed at a FU exactly once; ops in
	// flight at the stopping instant may not have reported completion
	// yet, so FU ops can exceed completions only by that small margin.
	pimCompleted := res.Stats.Apps[1].Completed
	if tc.PIMOps < pimCompleted {
		t.Errorf("FU ops %d < completed PIM requests %d", tc.PIMOps, pimCompleted)
	}
	slack := uint64(cfg.Memory.Channels * cfg.Memory.PIMQSize)
	if tc.PIMOps > pimCompleted+slack {
		t.Errorf("FU ops %d exceed completions %d by more than in-flight slack", tc.PIMOps, pimCompleted)
	}
	// Each MEM request is classified exactly once, at or before its
	// column command: issued commands never exceed classifications.
	if tc.MemReads+tc.MemWrites > tc.RowHits+tc.RowMisses {
		t.Errorf("issued %d MEM commands but only %d classifications",
			tc.MemReads+tc.MemWrites, tc.RowHits+tc.RowMisses)
	}
}

// TestPIMOnlyRunNeverSwitches: with no MEM traffic the controller enters
// PIM mode once and stays.
func TestPIMOnlyRunNeverSwitches(t *testing.T) {
	cfg := testCfg()
	_, pimSMs := GPUAndPIMSMs(cfg)
	res := mustRun(t, cfg, "f3fs", []KernelDesc{pimDesc(t, "P2", pimSMs, 0.2)})
	tc := res.Stats.TotalChannel()
	if tc.Switches > uint64(cfg.Memory.Channels) {
		t.Errorf("PIM-only run switched %d times, want <= one per channel", tc.Switches)
	}
	if tc.MemReads+tc.MemWrites != 0 {
		t.Errorf("phantom MEM commands: %d", tc.MemReads+tc.MemWrites)
	}
}

// TestGPUOnlyRunHasNoPIMActivity is the mirror image.
func TestGPUOnlyRunHasNoPIMActivity(t *testing.T) {
	cfg := testCfg()
	res := mustRun(t, cfg, "f3fs", []KernelDesc{gpuDesc(t, "G3", SomeSMs(cfg, cfg.GPU.NumSMs), 0.2)})
	tc := res.Stats.TotalChannel()
	if tc.PIMOps != 0 || tc.Switches != 0 {
		t.Errorf("GPU-only run: pim ops %d, switches %d", tc.PIMOps, tc.Switches)
	}
}

// TestMoreSMsFinishFaster: the same kernel on more SMs must not be
// slower (the basis of the Fig. 5 reduced-SM comparison).
func TestMoreSMsFinishFaster(t *testing.T) {
	cfg := testCfg()
	few := mustRun(t, cfg, "fr-fcfs", []KernelDesc{gpuDesc(t, "G7", SomeSMs(cfg, 4), 0.2)})
	many := mustRun(t, cfg, "fr-fcfs", []KernelDesc{gpuDesc(t, "G7", SomeSMs(cfg, cfg.GPU.NumSMs), 0.2)})
	if many.Kernels[0].FirstFinish > few.Kernels[0].FirstFinish {
		t.Errorf("20 SMs (%d cycles) slower than 4 SMs (%d cycles)",
			many.Kernels[0].FirstFinish, few.Kernels[0].FirstFinish)
	}
}

// TestStarvationAborts: a policy that never grants PIM mode starves the
// PIM kernel; the run must abort instead of spinning forever, and the
// starved kernel must report zero/partial progress.
func TestStarvationAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("starvation run takes seconds; skipped in -short mode")
	}
	cfg := testCfg()
	cfg.NoC.Mode = config.VC2 // isolate starvation at the controller
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, func() sched.Policy { return memOnlyPolicy{} }, []KernelDesc{
		gpuDesc(t, "G4", gpuSMs, 0.4),
		pimDesc(t, "P1", pimSMs, 0.4),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireStarvationAbort(t, cfg, res)
	if res.Kernels[1].Finished {
		t.Error("PIM kernel finished under a MEM-only policy")
	}
}

// memOnlyPolicy never leaves MEM mode: an adversarial policy for
// starvation testing.
type memOnlyPolicy struct{}

func (memOnlyPolicy) Name() string                        { return "mem-only" }
func (memOnlyPolicy) DesiredMode(sched.View) sched.Mode   { return sched.ModeMEM }
func (memOnlyPolicy) OnIssue(sched.View, sched.IssueInfo) {}
func (memOnlyPolicy) OnSwitch(sched.View, sched.Mode)     {}

// TestModeFlappingPolicyStaysCorrect: a policy that demands a switch
// every cycle exercises the drain machinery hard; the run must still
// complete with all requests conserved.
func TestModeFlappingPolicyStaysCorrect(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, func() sched.Policy { return &flappingPolicy{} }, []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.1),
		pimDesc(t, "P2", pimSMs, 0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Kernels {
		if !k.Finished {
			t.Errorf("kernel %s unfinished under mode flapping (aborted=%v)", k.Label, res.Aborted)
		}
	}
	if res.Stats.TotalChannel().Switches == 0 {
		t.Error("flapping policy produced no switches")
	}
}

// flappingPolicy alternates desired mode on every query while work
// exists on both sides.
type flappingPolicy struct{ last sched.Mode }

func (p *flappingPolicy) Name() string { return "flapping" }
func (p *flappingPolicy) DesiredMode(v sched.View) sched.Mode {
	if v.MemQLen() == 0 {
		return sched.ModePIM
	}
	if v.PIMQLen() == 0 {
		return sched.ModeMEM
	}
	p.last = p.last.Other()
	return p.last
}
func (p *flappingPolicy) OnIssue(sched.View, sched.IssueInfo) {}
func (p *flappingPolicy) OnSwitch(sched.View, sched.Mode)     {}

// TestAllNinePoliciesCompleteSmallCoRun is the catch-all integration
// test: every registered policy must finish a small co-execution without
// panicking, under both interconnect configurations.
func TestAllNinePoliciesCompleteSmallCoRun(t *testing.T) {
	for _, mode := range []config.VCMode{config.VC1, config.VC2} {
		for _, policy := range core.PolicyNames {
			policy, mode := policy, mode
			t.Run(policy+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				cfg := testCfg()
				cfg.NoC.Mode = mode
				gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
				res := mustRun(t, cfg, policy, []KernelDesc{
					gpuDesc(t, "G8", gpuSMs, 0.1),
					pimDesc(t, "P1", pimSMs, 0.1),
				})
				// Starvation-prone policies may abort; that is a
				// valid outcome (fairness 0), a crash is not.
				if !res.Aborted {
					for _, k := range res.Kernels {
						if !k.Finished {
							t.Errorf("%s: kernel %s unfinished without abort", policy, k.Label)
						}
					}
				}
			})
		}
	}
}

// TestQueueOccupancyNeverExceedsCapacity samples controller queue
// occupancy statistics against Table I capacities.
func TestQueueOccupancyNeverExceedsCapacity(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), []KernelDesc{
		gpuDesc(t, "G4", gpuSMs, 0.15),
		pimDesc(t, "P1", pimSMs, 0.15),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for ch, mc := range sys.Controllers() {
		mem, pim := mc.QueueLens()
		if mem > cfg.Memory.MemQSize || pim > cfg.Memory.PIMQSize {
			t.Errorf("channel %d queues %d/%d exceed capacity", ch, mem, pim)
		}
	}
}

// TestPoolAccountedAtEndOfRun: every request drawn from the System's pool
// is either returned or still resident somewhere countable — nothing
// leaks out of the free list. A PIM kernel run once retires every op
// before it finishes, so its pool ends empty; a looping co-execution ends
// with traffic in flight, all of it accounted for.
func TestPoolAccountedAtEndOfRun(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	run := func(once bool, descs []KernelDesc) *System {
		sys, err := New(cfg, core.Factory("f3fs", cfg.Sched), descs)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetRunOnce(once)
		if res, err := sys.Run(); err != nil || res.Aborted {
			t.Fatalf("run failed: err=%v aborted=%v", err, res != nil && res.Aborted)
		}
		return sys
	}
	pimOnly := run(true, []KernelDesc{pimDesc(t, "P1", pimSMs, 0.2)})
	if live := pimOnly.pool.Live(); live != 0 {
		t.Errorf("finished run-once PIM run: %d requests never returned to the pool", live)
	}
	mixed := run(false, []KernelDesc{gpuDesc(t, "G8", gpuSMs, 0.2), pimDesc(t, "P1", pimSMs, 0.2)})
	if live, held := mixed.pool.Live(), mixed.requestsHeld(); live != held || live == 0 {
		t.Errorf("co-execution: %d requests out of the pool, %d resident (want equal and non-zero)", live, held)
	}
}
