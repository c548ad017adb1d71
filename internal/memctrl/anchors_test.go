package memctrl

import (
	"testing"

	"repro/internal/config"
	"repro/internal/request"
	"repro/internal/sched"
)

// TestColumnCadenceAnchors pins two closed-form answers of Table I (the
// analytic anchors of a methodology check, not a comparison with the
// model's own older path): a saturated stream of row-hit reads to one bank
// issues one column per tCCDl, and one rotating across the bank groups one
// column per tCCDs — each no faster than the data bus frees, BL/2 cycles
// per burst. The controller is ticked only at its NextEvent cycles and on
// arrivals, as the event engine does, so a late or missed wake would show
// as a slower cadence. The cadence is read from completions 100–900, past
// the stream's first activates.
func TestColumnCadenceAnchors(t *testing.T) {
	cfg := config.Paper()
	tm, burst := cfg.Memory.Timing, cfg.Memory.BurstLength/2
	groupSize := cfg.Memory.Banks / cfg.Memory.BankGroups
	for _, tc := range []struct {
		name string
		bank func(i int) int
		want int
	}{
		{"one bank: tCCDl", func(int) int { return 0 }, max(tm.TCCDL, burst)},
		{"bank groups in turn: tCCDs", func(i int) int { return i % cfg.Memory.BankGroups * groupSize }, max(tm.TCCDS, burst)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const first, last = 100, 900
			got := columnCadence(t, cfg, tc.bank, first, last)
			if want := float64(tc.want); got != want {
				t.Errorf("%.3f cycles per column over completions %d–%d, Table I gives %v", got, first, last, want)
			}
		})
	}
}

// columnCadence streams row-hit reads to bank(i) for the i-th request
// through an FR-FCFS controller, refilling the MEM queue whenever it falls
// to half, and returns the mean cycles between completions first and last.
func columnCadence(t *testing.T, cfg config.Config, bank func(i int) int, first, last int) float64 {
	t.Helper()
	var done captured
	c := New(0, cfg, sched.NewFRFCFS(), nil, done.fn)
	const row = 5
	sent, ticks, next := 0, 0, uint64(1)
	var now uint64
	for now = 1; len(done.times) <= last; now++ {
		if now > 100_000 {
			t.Fatalf("stalled: %d of %d reads complete by cycle %d", len(done.times), last+1, now)
		}
		wake := false
		if mem, _ := c.QueueLens(); mem <= cfg.Memory.MemQSize/2 {
			c.SyncTo(now - 1) // the event engine closes accounting before stamping arrivals
			for ; c.CanAccept(request.MemRead); sent++ {
				c.Enqueue(memReq(0, bank(sent), row, uint32(sent%cfg.Memory.Columns), false))
			}
			wake = true
		}
		if wake || now >= next {
			c.Tick(now)
			ticks++
			next = c.NextEvent(now)
		}
	}
	if uint64(ticks) >= now {
		t.Errorf("%d ticks over %d cycles: the stream never skipped a cycle", ticks, now)
	}
	return float64(done.times[last]-done.times[first]) / float64(last-first)
}
