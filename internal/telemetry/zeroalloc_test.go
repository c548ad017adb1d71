package telemetry

import "testing"

// TestNilHandleZeroAlloc locks in the cost model callers rely on: a
// detached (nil) metric handle must make every mutator a free no-op, or
// code built without a registry would pay for the instrumentation
// anyway. The nilhandle analyzer proves the guards exist; this proves
// they are allocation-free.
func TestNilHandleZeroAlloc(t *testing.T) {
	var (
		c *Counter
		g *Gauge
	)
	if avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
	}); avg != 0 {
		t.Errorf("nil handle mutators: %v allocs/op, want 0", avg)
	}
}
