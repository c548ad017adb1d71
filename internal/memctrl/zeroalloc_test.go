package memctrl

import (
	"testing"

	"repro/internal/config"
	"repro/internal/invariant"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tickAllocs drives a controller saturated with mixed MEM/PIM traffic,
// its event stream attached to sink (nil: detached), into steady state
// and returns the average allocations per Tick. The request population
// is built once and recycled through the completion callback, so the
// measured loop performs only controller work.
func tickAllocs(t *testing.T, sink trace.Sink) float64 {
	t.Helper()
	cfg := config.Paper()
	var st stats.Channel
	free := make([]*request.Request, 0, cfg.Memory.MemQSize+cfg.Memory.PIMQSize)
	c := New(0, cfg, sched.NewFRRRFCFS(), &st, func(r *request.Request, _ uint64) {
		free = append(free, r)
	})
	c.SetSink(sink)
	for i := 0; i < cap(free); i++ {
		r := &request.Request{ID: uint64(i + 1)}
		if i%3 == 0 {
			r.Kind = request.PIMOp
			r.Row = uint32(i % 64)
			r.PIM = &request.PIMInfo{Op: request.PIMLoad, RFEntry: i % 8, Block: i / 24}
		} else {
			r.Kind = request.MemRead
			r.Bank = i % cfg.Memory.Banks
			r.Row = uint32((i * 7) % 64)
		}
		free = append(free, r)
	}
	// The PIM units require non-decreasing block numbers, so recycled
	// PIM requests get a fresh block on every enqueue.
	blockSeq := 0
	refill := func() {
		for i := 0; i < len(free); {
			if free[i].Kind == request.PIMOp {
				blockSeq++
				free[i].PIM.Block = blockSeq
			}
			if c.Enqueue(free[i]) {
				free[i] = free[len(free)-1]
				free[len(free)-1] = nil
				free = free[:len(free)-1]
			} else {
				i++
			}
		}
	}
	now := uint64(0)
	tick := func() {
		refill()
		now++
		c.Tick(now)
	}
	// Warm up past one-time growth (inflight buffer, candidate lists,
	// the first mode switches) before measuring.
	for i := 0; i < 4096; i++ {
		tick()
	}
	return testing.AllocsPerRun(512, tick)
}

// TestTickZeroAlloc locks in the hot-path allocation contract
// (docs/PERFORMANCE.md): in steady state Controller.Tick allocates
// nothing. The hotalloc analyzer proves the property statically; this
// test catches the dynamic escapes it cannot see (slice growth, capacity
// walks), detached and with a Ring sink attached.
func TestTickZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("simdebug build: per-cycle invariant checks allocate by design")
	}
	for _, c := range []struct {
		name string
		sink trace.Sink
	}{{"detached", nil}, {"ring", trace.NewRing(0, 64)}} {
		if avg := tickAllocs(t, c.sink); avg != 0 {
			t.Errorf("Tick, sink %s: %v allocs/op, want 0", c.name, avg)
		}
	}
}
