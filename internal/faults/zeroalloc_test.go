package faults

import "testing"

// TestNilInjectorZeroAlloc locks in the cost of a fault-free build: a
// nil Injector is the "no schedule" configuration, and its per-cycle
// queries sit on the DRAM and NoC hot paths, so they must not allocate.
func TestNilInjectorZeroAlloc(t *testing.T) {
	var in *Injector
	if avg := testing.AllocsPerRun(1000, func() {
		_ = in.CASDelay(0)
		_ = in.Throttled(0, 17)
		in.ThrottledRange(0, 17, 17)
		_ = in.LinkTick(0, 2)
	}); avg != 0 {
		t.Errorf("nil injector queries: %v allocs/op, want 0", avg)
	}
}
