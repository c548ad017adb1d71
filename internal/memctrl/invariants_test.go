package memctrl

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/sched"
)

// TestInvariantCatchesStaleIssueDeadline is the mutation test for the
// simdebug check in nextIssueAt: an issue deadline that outlives an event
// which moves it (here an Enqueue that forgot to invalidate) must fail the
// next NextEvent in a simdebug build; a release build, with the assertion
// compiled out, sleeps on the stale answer.
func TestInvariantCatchesStaleIssueDeadline(t *testing.T) {
	c := newCtl(sched.NewFRFCFS(), nil, nil)
	c.Tick(1) // empty queues: the issue stage leaves "never"
	if next := c.NextEvent(1); next != never {
		t.Fatalf("idle controller: NextEvent(1) = %d, want never", next)
	}
	c.Enqueue(memReq(0, 0, 1, 0, false))
	c.issueKnown = true // the lost invalidation
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		c.NextEvent(1)
		return false
	}()
	if panicked != invariant.Enabled {
		t.Errorf("NextEvent on a stale issue deadline panicked=%v, want %v", panicked, invariant.Enabled)
	}
}

// TestInvariantCatchesStaleBankEntry is the mutation test for the simdebug
// check of the FR-FCFS index: a bank entry whose candidate no longer
// matches its queue and row buffer, and a non-empty bit left on an emptied
// bank, must each fail the next Tick in a simdebug build and pass
// unnoticed in a release build.
func TestInvariantCatchesStaleBankEntry(t *testing.T) {
	setup := func() *Controller {
		c := newCtl(sched.NewFRFCFS(), nil, nil)
		c.Enqueue(memReq(0, 3, 1, 0, false))
		c.Enqueue(memReq(0, 3, 2, 0, false))
		c.Tick(1) // activates row 1 in bank 3
		c.Tick(2) // derives bank 3's entry: row 1's request is its oldest hit
		if e := &c.banks[3]; e.epoch != c.ch.RowEpoch(3) || e.hit == nil || e.hit != c.memQ[0] {
			t.Fatalf("setup: bank 3 entry %+v, want a valid entry naming the row hit", *e)
		}
		return c
	}
	cases := []struct {
		name    string
		corrupt func(c *Controller)
	}{
		{"candidate names the younger request", func(c *Controller) {
			c.banks[3].hit, c.banks[3].cand = nil, candOf(c.memQ[1]) // an invalidation that never came
		}},
		{"non-empty bit on an empty bank", func(c *Controller) {
			c.nonEmpty[0] |= 1 << 5 // a clear that never came
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := setup()
			tc.corrupt(c)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				c.Tick(3)
				return false
			}()
			if panicked != invariant.Enabled {
				t.Errorf("Tick on a broken index panicked=%v, want %v", panicked, invariant.Enabled)
			}
		})
	}
}
