package memctrl

import "repro/internal/invariant"

// Debug-build conservation counters. They are ordinary fields (two
// words per controller), but every update and check sits behind
// `if invariant.Enabled`, so release builds never touch them.
type conservation struct {
	enqueued  uint64 // requests admitted by Enqueue
	completed uint64 // requests retired by completeInflight
}

// checkInvariants validates the per-channel structural invariants at a
// cycle boundary (called from Tick in simdebug builds):
//
//   - request conservation: every admitted request is either queued,
//     in flight, or completed — nothing is duplicated or dropped;
//   - queue bounds: occupancy never exceeds the configured MEM/PIM
//     queue capacities (Table I sizes);
//   - drain discipline: while a mode switch is draining, the inflight
//     set is the only place work may remain for the outgoing mode's
//     issue engine to wait on;
//   - no stale request pointers: request objects are recycled once they
//     complete, so a cached row-hit candidate (compared by pointer) must
//     still be queued at its bank and live.
func (c *Controller) checkInvariants() {
	queued := uint64(len(c.memQ) + len(c.pimQ))
	inFlight := uint64(len(c.inflight))
	invariant.Assert(c.cons.enqueued == c.cons.completed+queued+inFlight,
		"memctrl ch%d cycle %d: request conservation broken: enqueued=%d completed=%d queued=%d inflight=%d",
		c.channelID, c.now, c.cons.enqueued, c.cons.completed, queued, inFlight)
	invariant.Assert(len(c.memQ) <= c.mem.MemQSize,
		"memctrl ch%d cycle %d: MEM queue %d over bound %d",
		c.channelID, c.now, len(c.memQ), c.mem.MemQSize)
	invariant.Assert(len(c.pimQ) <= c.mem.PIMQSize,
		"memctrl ch%d cycle %d: PIM queue %d over bound %d",
		c.channelID, c.now, len(c.pimQ), c.mem.PIMQSize)
	invariant.Assert(!c.switching || c.target != c.mode,
		"memctrl ch%d cycle %d: draining toward the current mode %v",
		c.channelID, c.now, c.mode)
	for b, hit := range c.candHit {
		if hit == nil {
			continue
		}
		hit.AssertLive("memctrl: row-hit cache")
		queued := false
		for _, r := range c.bankQ[b] {
			queued = queued || r == hit
		}
		invariant.Assert(queued, "memctrl ch%d cycle %d: bank %d row-hit cache names %v, which is not queued there",
			c.channelID, c.now, b, hit)
	}
}

// checkIssueDeadline asserts that the issue deadline kept from the last
// scan (issueAt, see nextIssueAt) is what a scan from scratch finds now —
// that no event which can move it has skipped its invalidation.
func (c *Controller) checkIssueDeadline() {
	fresh := c.scanIssueAt()
	invariant.Assert(c.issueAt == fresh,
		"memctrl ch%d cycle %d: issue deadline %d kept from the last scan, a fresh scan says %d",
		c.channelID, c.now, c.issueAt, fresh)
}
