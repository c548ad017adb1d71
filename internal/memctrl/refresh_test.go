package memctrl

import (
	"testing"

	"repro/internal/config"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestControllerServicesRefresh: with the supplemental refresh model
// enabled, the controller drains, closes banks, refreshes on schedule,
// and still completes its request stream. Its event stream shows every
// bank closed before each refresh: no refresh follows a bank's act
// without a pre, pre-all or pim-pre-all in between.
func TestControllerServicesRefresh(t *testing.T) {
	cfg := config.Paper()
	cfg.Memory.Timing.TREFI = 300
	cfg.Memory.Timing.TRFC = 60
	var st stats.Channel
	var done captured
	c := New(0, cfg, sched.NewFRFCFS(), &st, done.fn)
	ring := trace.NewRing(0, 1<<14)
	c.SetSink(ring)

	// Feed a steady trickle of MEM reads across 2000 cycles. Bank and
	// row derive from the injection slot counter, not the cycle counter
	// (cyclesafe: cycle values must never be narrowed).
	fed, slot := 0, 0
	for now := uint64(0); now < 2000; now++ {
		if now%20 == 0 {
			if c.CanAccept(request.MemRead) {
				c.Enqueue(memReq(0, slot%16, uint32(slot/5), 0, false))
				fed++
			}
			slot++
		}
		c.Tick(now)
	}
	// Let the tail drain.
	for now := uint64(2000); now < 2500; now++ {
		c.Tick(now)
	}
	if st.Refreshes < 5 {
		t.Errorf("refreshes = %d over 2500 cycles at tREFI=300, want >= 5", st.Refreshes)
	}
	if len(done.reqs) != fed {
		t.Errorf("completed %d of %d requests with refresh enabled", len(done.reqs), fed)
	}
	if ring.Len() == 1<<14 {
		t.Fatal("ring full: the stream's start may be lost")
	}
	open := make([]*trace.Event, cfg.Memory.Banks) // bank -> the act that opened it, nil when closed
	evs := ring.Events()
	for i := range evs {
		switch e := &evs[i]; e.Kind {
		case trace.EvActivate:
			open[e.Bank] = e
		case trace.EvPrecharge:
			open[e.Bank] = nil
		case trace.EvPrechargeAll, trace.EvPIMPrechargeAll:
			clear(open)
		case trace.EvRefresh:
			for b, act := range open {
				if act != nil {
					t.Fatalf("refresh at cycle %d with bank %d open since its act at cycle %d", e.Cycle, b, act.Cycle)
				}
			}
		}
	}
}

// TestRefreshInterruptsPIMMode: refreshes must also preempt PIM
// servicing.
func TestRefreshInterruptsPIMMode(t *testing.T) {
	cfg := config.Paper()
	cfg.Memory.Timing.TREFI = 200
	cfg.Memory.Timing.TRFC = 60
	var st stats.Channel
	var done captured
	c := New(0, cfg, sched.NewPIMFirst(), &st, done.fn)
	total := 0
	block := 0
	for now := uint64(0); now < 3000; now++ {
		if now%10 == 0 && c.CanAccept(request.PIMOp) {
			c.Enqueue(pimReq(0, uint32(block%64), block, 0, request.PIMLoad))
			block++
			total++
		}
		c.Tick(now)
	}
	// Each single-op block pays a broadcast PRE+ACT (~26 cycles), so the
	// backlog needs a long drain window.
	for now := uint64(3000); now < 9000 && c.Held() > 0; now++ {
		c.Tick(now)
	}
	if st.Refreshes < 10 {
		t.Errorf("refreshes = %d, want >= 10", st.Refreshes)
	}
	if len(done.reqs) != total {
		t.Errorf("completed %d of %d PIM ops with refresh enabled", len(done.reqs), total)
	}
}
