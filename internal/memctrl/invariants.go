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
//   - the FR-FCFS index is exact: the banks' queues hold the MEM queue,
//     bit b of nonEmpty is set iff bank b's queue is, and every entry
//     still valid for its bank's row epoch equals one derived from scratch
//     (so its live, queued requests — objects are recycled once they
//     complete — and its candidate's dense copy are current).
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
	banked := 0
	for b := range c.banks {
		e := &c.banks[b]
		banked += len(e.q)
		set := c.nonEmpty[b>>6]&(1<<(b&63)) != 0
		invariant.Assert(set == (len(e.q) > 0), "memctrl ch%d cycle %d: bank %d holds %d requests, non-empty bit %v",
			c.channelID, c.now, b, len(e.q), set)
		for _, r := range e.q {
			r.AssertLive("memctrl: bank queue")
		}
		if e.epoch != c.ch.RowEpoch(b) {
			continue // stale: derived again before it is read
		}
		fresh := c.derive(b, e.q)
		invariant.Assert(e.hit == fresh.hit && e.cand == fresh.cand,
			"memctrl ch%d cycle %d: bank %d entry (hit %v, candidate %+v) is stale, its queue and row buffer give (hit %v, candidate %+v)",
			c.channelID, c.now, b, e.hit, e.cand, fresh.hit, fresh.cand)
	}
	invariant.Assert(banked == len(c.memQ), "memctrl ch%d cycle %d: bank queues hold %d requests, the MEM queue %d",
		c.channelID, c.now, banked, len(c.memQ))
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
