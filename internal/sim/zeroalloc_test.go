package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/invariant"
)

// saturatedSystem builds a co-execution System (L1 on) whose kernels are
// long enough to stay on their first run throughout a test, launches
// them as RunContext does, and returns it with its one-cycle function.
func saturatedSystem(t *testing.T, vc config.VCMode, tick, telemetryOn bool, flt faults.Schedule) (*System, func()) {
	t.Helper()
	cfg := testCfg()
	cfg.NoC.Mode = vc
	cfg.Faults = flt
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

// stepWindow is how many cycles TestStepZeroAlloc counts, and
// stepCeiling how many heap objects it allows them.
const stepWindow, stepCeiling = 4096, 200

// TestStepZeroAlloc extends the hot-path allocation contract
// (docs/PERFORMANCE.md) from Controller.Tick to the whole simulated
// cycle: generators, L1, crossbar, L2, controllers, DRAM, response
// delivery and request recycling. After a 20 000-cycle warm-up of a
// saturated co-execution it counts, exactly, the heap objects the next
// stepWindow cycles allocate, under both schedules and both interconnect
// modes, with telemetry detached and attached, and with a fault schedule
// that retries one column in five. The count is not zero: the MSHR merge
// lists (the append in cache.Slice.Access) are still growing toward
// their high-water mark, and make 90-99 % of the 96-145 objects a window
// reads. stepCeiling sits below what one allocation per frequent event
// adds: a slice made per ECC retry reads 259-493.
func TestStepZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("simdebug build: per-cycle invariant checks allocate by design")
	}
	retries := fullFaults()
	retries.DRAMRetryProb = 0.2
	for _, vc := range []config.VCMode{config.VC1, config.VC2} {
		for _, tick := range []bool{true, false} {
			for _, c := range []struct {
				name string
				tel  bool
				flt  faults.Schedule
			}{
				{"detached", false, faults.Schedule{}},
				{"telemetry", true, faults.Schedule{}},
				{"faults", false, retries},
			} {
				name := fmt.Sprintf("%v tick=%v %s", vc, tick, c.name)
				sys, cycle := saturatedSystem(t, vc, tick, c.tel, c.flt)
				for i := 0; i < 20_000; i++ {
					cycle()
				}
				before := sys.st.Apps[0].Completed + sys.st.Apps[1].Completed
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < stepWindow; i++ {
					cycle()
				}
				runtime.ReadMemStats(&m1)
				done := sys.st.Apps[0].Completed + sys.st.Apps[1].Completed - before
				mallocs := m1.Mallocs - m0.Mallocs
				t.Logf("%s: %d heap objects in %d cycles", name, mallocs, stepWindow)
				if mallocs > stepCeiling {
					t.Errorf("%s: %d heap objects in %d cycles, ceiling %d", name, mallocs, stepWindow, stepCeiling)
				}
				// The window must have measured a busy system, not an
				// idle or finished one.
				if done < 1000 || sys.allFinished() {
					t.Errorf("%s: only %d requests retired in the measured window (finished=%v)",
						name, done, sys.allFinished())
				}
			}
		}
	}
}

// runAllocs returns the heap objects and bytes allocated by building and
// running one cell to completion.
func runAllocs(t *testing.T, cfg config.Config, descs []KernelDesc) (objects, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := mustRun(t, cfg, "f3fs", descs)
	runtime.ReadMemStats(&after)
	if res.Aborted {
		t.Fatalf("budget cell aborted")
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestRunAllocBudget pins the allocation cost of one whole cell per
// workload shape — construction, warm-up growth and the run — so that a
// per-request or per-relaunch allocation sneaking back in fails here
// rather than in a later benchmark. The counts repeat to within a dozen
// objects (2818 / 979 / 2923 when written; the runtime's own background
// allocations are the jitter) and are almost all System construction;
// each ceiling leaves ~13 % for that. Before request pooling the same
// cells cost 61 529 / 52 763 / 109 522.
//
// The byte ceilings (KiB; measured 2365 / 1366 / 2913, same ~13 %) pin
// what construction sizes: a cache slice allocates its lines on its first
// request and a controller its MEM-queue windows on its first MEM
// request, so the pim-only cell, which reaches neither, fails here if
// either is allocated eagerly again (3295 KiB when both were).
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
		kib     uint64
	}{
		{"mem-only", []KernelDesc{gpuDesc(t, "G8", SomeSMs(cfg, cfg.GPU.NumSMs), 0.3)}, 3200, 2700},
		{"pim-only", []KernelDesc{pimDesc(t, "P1", pimSMs, 0.3)}, 1150, 1550},
		{"mixed", []KernelDesc{gpuDesc(t, "G8", gpuSMs, 0.3), pimDesc(t, "P1", pimSMs, 0.3)}, 3300, 3300},
	}
	// One throwaway cell absorbs the process's lazy one-time setup
	// (profile tables, build-info lookup for the manifest).
	runAllocs(t, cfg, cells[2].descs)
	for _, c := range cells {
		got, bytes := runAllocs(t, cfg, c.descs)
		t.Logf("%s: %d mallocs (ceiling %d), %d KiB (ceiling %d)", c.name, got, c.ceiling, bytes>>10, c.kib)
		if got > c.ceiling {
			t.Errorf("%s: %d heap objects for one cell, ceiling %d", c.name, got, c.ceiling)
		}
		if bytes>>10 > c.kib {
			t.Errorf("%s: %d KiB allocated for one cell, ceiling %d", c.name, bytes>>10, c.kib)
		}
	}
}
