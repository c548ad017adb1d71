package sim

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/invariant"
)

// saturatedSystem builds a co-execution System (L1 on) whose kernels are
// long enough to stay on their first run throughout a test, launches
// them as RunContext does, and returns it with its one-cycle function.
func saturatedSystem(t *testing.T, vc config.VCMode, tick, telemetryOn bool) (*System, func()) {
	t.Helper()
	cfg := testCfg()
	cfg.NoC.Mode = vc
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, core.Factory("f3fs", cfg.Sched), []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 4),
		pimDesc(t, "P1", pimSMs, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetryOn {
		// Collector attached; the epoch sampler allocates a snapshot per
		// epoch by design (coldpath), so keep epochs out of the window.
		sys.EnableTelemetry(1<<40, 0)
	}
	for _, k := range sys.kernels {
		k.Start(0)
	}
	if tick {
		sys.useTickLoop()
	}
	return sys, sys.advance
}

// TestStepZeroAlloc extends the hot-path allocation contract
// (docs/PERFORMANCE.md) from Controller.Tick to the whole simulated
// cycle: once the request pool, MSHR tables, queues and response ring
// have reached their working size, one GPU cycle of a saturated
// co-execution — generators, L1, crossbar, L2, controllers, DRAM,
// response delivery, request recycling — allocates nothing, under both
// schedules, both interconnect modes, telemetry detached and attached.
func TestStepZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("simdebug build: per-cycle invariant checks allocate by design")
	}
	for _, vc := range []config.VCMode{config.VC1, config.VC2} {
		for _, tick := range []bool{true, false} {
			for _, tel := range []bool{false, true} {
				sys, cycle := saturatedSystem(t, vc, tick, tel)
				for i := 0; i < 20_000; i++ {
					cycle()
				}
				before := sys.st.Apps[0].Completed + sys.st.Apps[1].Completed
				avg := testing.AllocsPerRun(4096, cycle)
				done := sys.st.Apps[0].Completed + sys.st.Apps[1].Completed - before
				if avg != 0 {
					t.Errorf("%v tick=%v telemetry=%v: %v allocs per cycle, want 0", vc, tick, tel, avg)
				}
				// The window must have measured a busy system, not an
				// idle or finished one.
				if done < 1000 || sys.allFinished() {
					t.Errorf("%v tick=%v telemetry=%v: only %d requests retired in the measured window (finished=%v)",
						vc, tick, tel, done, sys.allFinished())
				}
			}
		}
	}
}

// runMallocs returns the heap objects allocated by building and running
// one cell to completion.
func runMallocs(t *testing.T, cfg config.Config, descs []KernelDesc) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := mustRun(t, cfg, "f3fs", descs)
	runtime.ReadMemStats(&after)
	if res.Aborted {
		t.Fatalf("budget cell aborted")
	}
	return after.Mallocs - before.Mallocs
}

// TestRunAllocBudget pins the allocation cost of one whole cell per
// workload shape — construction, warm-up growth and the run — so that a
// per-request or per-relaunch allocation sneaking back in fails here
// rather than in a later benchmark. The counts repeat to within a dozen
// objects (2818 / 979 / 2923 when written; the runtime's own background
// allocations are the jitter) and are almost all System construction;
// each ceiling leaves ~13 % for that. Before request pooling the same
// cells cost 61 529 / 52 763 / 109 522.
func TestRunAllocBudget(t *testing.T) {
	if invariant.Enabled {
		t.Skip("simdebug build: assertions allocate")
	}
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	cells := []struct {
		name    string
		descs   []KernelDesc
		ceiling uint64
	}{
		{"mem-only", []KernelDesc{gpuDesc(t, "G8", SomeSMs(cfg, cfg.GPU.NumSMs), 0.3)}, 3200},
		{"pim-only", []KernelDesc{pimDesc(t, "P1", pimSMs, 0.3)}, 1150},
		{"mixed", []KernelDesc{gpuDesc(t, "G8", gpuSMs, 0.3), pimDesc(t, "P1", pimSMs, 0.3)}, 3300},
	}
	// One throwaway cell absorbs the process's lazy one-time setup
	// (profile tables, build-info lookup for the manifest).
	runMallocs(t, cfg, cells[2].descs)
	for _, c := range cells {
		got := runMallocs(t, cfg, c.descs)
		t.Logf("%s: %d mallocs (ceiling %d)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %d heap objects for one cell, ceiling %d", c.name, got, c.ceiling)
		}
	}
}
