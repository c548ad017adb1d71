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
const stepWindow, stepCeiling = 4096, 4

// TestStepZeroAlloc extends the hot-path allocation contract
// (docs/PERFORMANCE.md) from Controller.Tick to the whole simulated
// cycle: generators, L1, crossbar, L2, controllers, DRAM, response
// delivery and request recycling. After a 20 000-cycle warm-up of a
// saturated co-execution it counts, exactly, the heap objects the next
// stepWindow cycles allocate, under both schedules and both interconnect
// modes, with telemetry detached and attached, and with a fault schedule
// that retries one column in five. A window reads 0 to 2 objects, the
// same on every repetition and under -race: the scratch slice
// cache.Slice.Fill returns, doubling when a fill releases more waiters
// than any before it. Nothing else grows 20 000 cycles in — MSHR merge
// lists and response-calendar slots link their requests through the
// requests (request.Chain); as slices they made 96-145 objects a window.
// stepCeiling leaves two objects for the runtime over the highest count,
// so an amortized append on a frequent event (one per ECC retry adds 3)
// fails here, and a slice made per retry (259-493) by far.
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
// objects (502 / 305-313 / 527 when written; the runtime's own background
// allocations are the jitter) and are almost all System construction;
// each ceiling leaves ~13 % over the highest. With a 64-slot PIM-queue
// array per controller, before the PIM queue became a request chain, the
// same cells cost 518-523 / 313-321 / 535-544; before the MSHR merge
// lists and the response calendar became chains 2544 / 688 / 2655, and
// before request pooling 61 529 / 52 763 / 109 522.
//
// The byte ceilings (KiB; measured 1683-1688 / 1354-1360 / 2251-2253,
// same ~13 %) pin what construction sizes: a cache slice allocates its
// lines and MSHR table on its first request and a controller its
// MEM-queue windows on its first MEM request, so the pim-only cell, which
// reaches neither, fails here if either is allocated eagerly again (3295
// KiB when both were), and so does a request grown past its 128-byte
// slab class (1634 KiB at 136 bytes, see request.TestRequestFitsSlabClass).
// The cells with MEM traffic fail if a cache line grows back from 16 bytes
// to the 24 of separate fields (2227-2231 and 2779-2781 KiB, see
// cache.TestLineIs16Bytes).
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
		{"mem-only", []KernelDesc{gpuDesc(t, "G8", SomeSMs(cfg, cfg.GPU.NumSMs), 0.3)}, 570, 1900},
		{"pim-only", []KernelDesc{pimDesc(t, "P1", pimSMs, 0.3)}, 355, 1530},
		{"mixed", []KernelDesc{gpuDesc(t, "G8", gpuSMs, 0.3), pimDesc(t, "P1", pimSMs, 0.3)}, 595, 2540},
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
