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
