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

// starvedRun runs a stall — a policy that never services PIM mode beside
// a PIM kernel — with a telemetry collector when withTelemetry is set.
func starvedRun(t *testing.T, withTelemetry bool) (*System, *Result) {
	t.Helper()
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	descs := []KernelDesc{
		gpuDesc(t, "G17", gpuSMs, 0.2),
		pimDesc(t, "P1", pimSMs, 0.2),
	}
	sys, err := New(cfg, func() sched.Policy { return memOnlyPolicy{} }, descs)
	if err != nil {
		t.Fatal(err)
	}
	if withTelemetry {
		sys.EnableTelemetry(0, 0)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireStarvationAbort(t, cfg, res)
	return sys, res
}

// requireStarvationAbort fails unless res was ended by the progress-window
// detector: Aborted, past a whole progress window, on a progress-check
// boundary and short of the cycle limit — the limit also sets Aborted, so
// a broken detector would otherwise spin to MaxGPUCycles unnoticed.
func requireStarvationAbort(t *testing.T, cfg config.Config, res *Result) {
	t.Helper()
	if !res.Aborted {
		t.Fatal("starved run not marked aborted")
	}
	if res.GPUCycles >= cfg.MaxGPUCycles {
		t.Fatalf("run hit the %d-cycle limit instead of the starvation detector", cfg.MaxGPUCycles)
	}
	if res.GPUCycles <= progressWindow || res.GPUCycles%checkEvery != 0 {
		t.Fatalf("abort at GPU cycle %d is not a progress check past the %d-cycle window", res.GPUCycles, progressWindow)
	}
}

// TestStarvationReturnsTypedError checks a starvation abort: the run
// ends Aborted after a whole progress window without progress, and
// Diagnostics shows the state it gave up in.
func TestStarvationReturnsTypedError(t *testing.T) {
	cfg := testCfg()
	sys, res := starvedRun(t, false)
	gpuCycle, dramCycle, queues := sys.Diagnostics()
	if gpuCycle != res.GPUCycles || dramCycle != res.DRAMCycles {
		t.Fatalf("Diagnostics at %d/%d disagrees with run length %d/%d", gpuCycle, dramCycle, res.GPUCycles, res.DRAMCycles)
	}
	if len(queues) != cfg.Memory.Channels {
		t.Fatalf("queue snapshot covers %d channels, want %d", len(queues), cfg.Memory.Channels)
	}
	pimQueued := 0
	for _, q := range queues {
		if q.Mode != "MEM" {
			t.Fatalf("starve policy left channel %d in mode %s", q.Channel, q.Mode)
		}
		pimQueued += q.PIMQ
	}
	if pimQueued == 0 {
		t.Fatal("starved PIM kernel has nothing queued at the controllers")
	}
	// The starved PIM kernel must show zero progress. (Under VC1 its
	// parked requests also head-of-line-block the GPU kernel — the
	// paper's denial-of-service mechanism — so the whole system wedges.)
	if res.Kernels[1].Completed != 0 {
		t.Fatalf("unexpected progress split: %+v", res.Kernels)
	}
}

// TestStarvedSnapshotCarriesResidency: a starved run with no telemetry
// collector still closes its mode-residency account — MEM, PIM and drain
// cycles partition the cycles sampled up to the abort — and with one, the
// capture's last sample is that final state.
func TestStarvedSnapshotCarriesResidency(t *testing.T) {
	sys, res := starvedRun(t, false)
	if res.Telemetry != nil {
		t.Fatal("starved run carries a collector it was never given")
	}
	for ch, mc := range sys.Controllers() {
		r, sampled := mc.Residency(), res.Stats.Channels[ch].SampledCycles
		if sampled == 0 || r.MemCycles+r.PIMCycles+r.DrainCycles != sampled {
			t.Fatalf("channel %d: residency %d/%d/%d does not partition %d sampled cycles",
				ch, r.MemCycles, r.PIMCycles, r.DrainCycles, sampled)
		}
	}

	sys, res = starvedRun(t, true)
	snaps := res.Telemetry.Sampler.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("starved run's capture has no samples")
	}
	last := snaps[len(snaps)-1]
	if last.GPUCycle != res.GPUCycles || len(last.Channels) != len(sys.Controllers()) {
		t.Fatalf("last sample at cycle %d with %d channels, want the abort at %d", last.GPUCycle, len(last.Channels), res.GPUCycles)
	}
	for ch, mc := range sys.Controllers() {
		r, cs := mc.Residency(), last.Channels[ch]
		if cs.MemModeCycles != r.MemCycles || cs.PIMModeCycles != r.PIMCycles || cs.DrainCycles != r.DrainCycles ||
			cs.SampledCycles != res.Stats.Channels[ch].SampledCycles {
			t.Fatalf("channel %d: last sample %+v is not the final residency %+v", ch, cs, r)
		}
	}
}

// TestRunContextCancellation checks both pre-cancelled contexts and
// deadlines expiring mid-run stop the run with an error wrapping the
// context's, and Diagnostics reports every channel's queues.
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
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	if _, _, queues := sys.Diagnostics(); len(queues) != cfg.Memory.Channels {
		t.Fatalf("interrupt diagnostics cover %d channels", len(queues))
	}

	sys2, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), descs)
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done() // the deadline has lapsed before the run starts
	if _, err = sys2.RunContext(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want an error wrapping context.DeadlineExceeded, got %v", err)
	}
	if _, _, queues := sys2.Diagnostics(); len(queues) != cfg.Memory.Channels {
		t.Fatalf("deadline diagnostics cover %d channels", len(queues))
	}

	// A System that was interrupted stays single-use.
	if _, err := sys.RunContext(context.Background()); err == nil {
		t.Fatal("re-running an interrupted System should fail")
	}
}
