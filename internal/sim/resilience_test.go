package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sched"
)

func faultCfg() config.Config {
	cfg := testCfg()
	cfg.Faults = faults.Schedule{
		DRAMRetryProb:   0.002,
		DRAMRetryCycles: 12,
		NoCStallProb:    0.001,
		NoCStallCycles:  24,
		ThrottlePeriod:  40_000,
		ThrottleWindow:  2_000,
	}
	return cfg
}

// TestZeroFaultScheduleBitIdentical pins that a zero fault schedule (and
// one that only names a seed) leaves runs bit-identical to a build with
// no fault subsystem at all: the golden competitive cycle counts of the
// telemetry-era pins must not move.
func TestZeroFaultScheduleBitIdentical(t *testing.T) {
	cfg := testCfg()
	cfg.NoC.Mode = config.VC2
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	descs := []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.3),
		pimDesc(t, "P1", pimSMs, 0.3),
	}

	base := mustRun(t, cfg, "f3fs", descs)
	if base.Faults != nil {
		t.Fatal("zero schedule must not attach fault counts")
	}

	// The fault-free golden cycle counts themselves are pinned by
	// golden_test.go; here we pin that carrying a Faults field — even a
	// seed-only one — does not perturb the simulation.
	seeded := cfg
	seeded.Faults = faults.Schedule{Seed: 12345} // seed alone: inactive
	res := mustRun(t, seeded, "f3fs", descs)
	bsw, rsw := base.Stats.TotalChannel().Switches, res.Stats.TotalChannel().Switches
	if res.GPUCycles != base.GPUCycles || rsw != bsw {
		t.Fatalf("seed-only schedule moved the run: %d/%d vs %d/%d",
			res.GPUCycles, rsw, base.GPUCycles, bsw)
	}
}

// TestFaultScheduleDeterministic pins that a nonzero schedule both
// perturbs the run and reproduces it exactly under the same seed.
func TestFaultScheduleDeterministic(t *testing.T) {
	cfg := faultCfg()
	cfg.NoC.Mode = config.VC2
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	descs := []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.3),
		pimDesc(t, "P1", pimSMs, 0.3),
	}

	clean := cfg
	clean.Faults = faults.Schedule{}
	base := mustRun(t, clean, "f3fs", descs)

	a := mustRun(t, cfg, "f3fs", descs)
	b := mustRun(t, cfg, "f3fs", descs)
	if a.GPUCycles != b.GPUCycles || a.Stats.TotalChannel().Switches != b.Stats.TotalChannel().Switches {
		t.Fatalf("same schedule diverged: %d/%d vs %d/%d",
			a.GPUCycles, a.Stats.TotalChannel().Switches, b.GPUCycles, b.Stats.TotalChannel().Switches)
	}
	if a.Faults == nil {
		t.Fatal("active schedule must attach fault counts")
	}
	if *a.Faults != *b.Faults {
		t.Fatalf("fault counts diverged: %+v vs %+v", *a.Faults, *b.Faults)
	}
	if a.Faults.DRAMRetries == 0 || a.Faults.ThrottledCycles == 0 || a.Faults.NoCLinkStalls == 0 {
		t.Fatalf("expected every fault class to fire, got %+v", *a.Faults)
	}
	if a.GPUCycles == base.GPUCycles {
		t.Fatal("faulty run matched the fault-free cycle count; injection had no effect")
	}

	// A different fault seed is a different (but still complete) run.
	cfg2 := cfg
	cfg2.Faults.Seed = 777
	c := mustRun(t, cfg2, "f3fs", descs)
	if c.GPUCycles == a.GPUCycles && *c.Faults == *a.Faults {
		t.Fatal("changing the fault seed changed nothing")
	}
}

// starvePolicy never leaves MEM mode, starving any PIM kernel.
type starvePolicy struct{}

func (starvePolicy) Name() string                        { return "starve-pim" }
func (starvePolicy) DesiredMode(sched.View) sched.Mode   { return sched.ModeMEM }
func (starvePolicy) OnIssue(sched.View, sched.IssueInfo) {}
func (starvePolicy) OnSwitch(sched.View, sched.Mode)     {}

// starvedRun runs a stall — a policy that never services PIM mode beside
// a PIM kernel — with no telemetry collector and returns its ErrStarved.
func starvedRun(t *testing.T) (*Result, *ErrStarved) {
	t.Helper()
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	descs := []KernelDesc{
		gpuDesc(t, "G17", gpuSMs, 0.2),
		pimDesc(t, "P1", pimSMs, 0.2),
	}
	sys, err := New(cfg, func() sched.Policy { return starvePolicy{} }, descs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("starved run not marked aborted")
	}
	if res.Starved == nil {
		t.Fatal("aborted-by-starvation run carries no ErrStarved")
	}
	return res, res.Starved
}

// TestStarvationReturnsTypedError checks a starvation abort surfaces as a
// typed ErrStarved embedding queue state and a final snapshot.
func TestStarvationReturnsTypedError(t *testing.T) {
	cfg := testCfg()
	res, st := starvedRun(t)
	if st.GPUCycle == 0 || st.GPUCycle != res.GPUCycles {
		t.Fatalf("ErrStarved cycle %d disagrees with run length %d", st.GPUCycle, res.GPUCycles)
	}
	if st.Window == 0 || st.GPUCycle-st.LastProgress <= st.Window {
		t.Fatalf("starvation window bookkeeping off: %+v", st)
	}
	if len(st.Queues) != cfg.Memory.Channels {
		t.Fatalf("queue snapshot covers %d channels, want %d", len(st.Queues), cfg.Memory.Channels)
	}
	pimQueued := 0
	for _, q := range st.Queues {
		if q.Mode != "MEM" {
			t.Fatalf("starve policy left channel %d in mode %s", q.Channel, q.Mode)
		}
		pimQueued += q.PIMQ
	}
	if pimQueued == 0 {
		t.Fatal("starved PIM kernel has nothing queued at the controllers")
	}
	if st.Snapshot.GPUCycle != res.GPUCycles || len(st.Snapshot.Channels) != cfg.Memory.Channels {
		t.Fatalf("embedded snapshot malformed: cycle %d, %d channels", st.Snapshot.GPUCycle, len(st.Snapshot.Channels))
	}
	if got := st.Error(); got == "" {
		t.Fatal("empty Error() string")
	}
	// The starved PIM kernel must show zero progress. (Under VC1 its
	// parked requests also head-of-line-block the GPU kernel — the
	// paper's denial-of-service mechanism — so the whole system wedges.)
	if res.Kernels[1].Completed != 0 {
		t.Fatalf("unexpected progress split: %+v", res.Kernels)
	}
}

// TestStarvedSnapshotCarriesResidency: the snapshot ErrStarved embeds
// reports mode residency with no telemetry collector attached — MEM, PIM
// and drain cycles partition the cycles sampled up to the abort.
func TestStarvedSnapshotCarriesResidency(t *testing.T) {
	res, st := starvedRun(t)
	if res.Telemetry != nil {
		t.Fatal("starved run carries a collector it was never given")
	}
	for ch, cs := range st.Snapshot.Channels {
		if cs.SampledCycles == 0 || cs.MemModeCycles+cs.PIMModeCycles+cs.DrainCycles != cs.SampledCycles {
			t.Fatalf("channel %d: residency %d/%d/%d does not partition %d sampled cycles",
				ch, cs.MemModeCycles, cs.PIMModeCycles, cs.DrainCycles, cs.SampledCycles)
		}
	}
}

// TestRunContextCancellation checks both pre-cancelled contexts and
// deadlines expiring mid-run surface as *ErrInterrupted.
func TestRunContextCancellation(t *testing.T) {
	cfg := testCfg()
	descs := []KernelDesc{gpuDesc(t, "G8", SomeSMs(cfg, cfg.GPU.NumSMs), 0.3)}

	sys, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), descs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sys.RunContext(ctx)
	if res != nil {
		t.Fatal("cancelled run returned a Result")
	}
	var ie *ErrInterrupted
	if !errors.As(err, &ie) {
		t.Fatalf("want *ErrInterrupted, got %T: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	if len(ie.Queues) != cfg.Memory.Channels {
		t.Fatalf("interrupt snapshot covers %d channels", len(ie.Queues))
	}

	sys2, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), descs)
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done() // the deadline has lapsed before the run starts
	_, err = sys2.RunContext(dctx)
	if !errors.As(err, &ie) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline-exceeded *ErrInterrupted, got %v", err)
	}

	// A System that was interrupted stays single-use.
	if _, err := sys.RunContext(context.Background()); err == nil {
		t.Fatal("re-running an interrupted System should fail")
	}
}
