// Package memctrl implements the per-channel memory controller of Fig. 1:
// separate MEM and PIM queues (64 entries each in Table I), an arbiter
// that switches between MEM and PIM modes under a pluggable scheduling
// policy, an FR-FCFS engine within MEM mode, FCFS execution of PIM
// requests, and the mode-switch drain semantics of Fig. 9 — a MEM->PIM
// switch stalls new issue and waits for every in-flight MEM request to
// complete, accumulating bank idle time that the statistics record as
// drain latency.
package memctrl

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/pim"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CompletionFunc is invoked when a request finishes at the DRAM (data
// returned for reads, write recovery elapsed for writes, lockstep op
// executed for PIM). now is the DRAM cycle of completion.
type CompletionFunc func(req *request.Request, now uint64)

type inflight struct {
	req    *request.Request
	doneAt uint64
}

// Controller is one channel's memory controller.
type Controller struct {
	channelID int
	mem       config.Memory
	ch        *dram.Channel
	units     *pim.Units
	policy    sched.Policy
	st        *stats.Channel
	complete  CompletionFunc

	// gate and timed are the policy's optional interfaces, asserted once
	// in New; nil when it does not implement them.
	gate  sched.MemGate
	timed sched.TimeSensitive

	memQ []*request.Request
	// pimQ is FIFO only (lockstep execution is FCFS), so it is a chain:
	// issuing its head moves no other entry.
	pimQ request.Chain
	seq  uint64

	// target is the mode a switch in progress drains toward; it equals
	// mode when none is.
	mode       sched.Mode
	switching  bool
	target     sched.Mode
	drainStart uint64

	inflight []inflight
	now      uint64

	// acct is the last DRAM cycle whose accounting (queue occupancy
	// sums, mode residency, throttle counts) has been applied. The event
	// engine leaves the controller unticked across cycles it has proven
	// quiescent; Tick and SyncTo close the gap (acct, now] through
	// syncRange before acting — one cycle wide when the controller is
	// ticked every cycle. DRAM cycles count from 1.
	acct uint64

	// issueAt is the deadline the issue stage left behind: a Tick that
	// reaches issueMEM/issuePIM and finds no legal command has already
	// scanned every candidate, so it keeps the earliest cycle its pick
	// issues one (never: none until the queues or the mode change) for the
	// NextEvent that follows. Valid while issueKnown, which every
	// event that can move the answer clears: the next Tick (completions,
	// refresh, arbitration, an issued command) and Enqueue.
	issueAt    uint64
	issueKnown bool

	// vw is the policy-facing view, built once at construction: view is
	// a value type, so converting it to sched.View at every policy call
	// would box an allocation onto the per-cycle path (hotalloc).
	vw sched.View

	sink trace.Sink // nil = no event stream

	// res is the mode-residency account (see Residency).
	res Residency

	// Fault injector handle; nil (the default) means no injection.
	flt *faults.Injector

	// Per-bank FR-FCFS index: banks[b] is bank b's share of the MEM queue
	// (a window that openWindows cuts on the first MEM request) and its
	// candidate (see bankEntry); bit b of nonEmpty is set iff that share
	// is non-empty, so a scan visits only banks with work.
	banks    []bankEntry
	nonEmpty []uint64

	// cons backs the simdebug request-conservation assertion; untouched
	// in release builds (see invariants.go).
	cons conservation
}

// New builds a controller for one channel. st and complete may be nil.
func New(channelID int, cfg config.Config, policy sched.Policy, st *stats.Channel, complete CompletionFunc) *Controller {
	c := &Controller{
		channelID: channelID,
		mem:       cfg.Memory,
		ch:        dram.NewChannel(cfg.Memory, cfg.PIM, st),
		units:     pim.NewUnits(cfg.PIM),
		policy:    policy,
		st:        st,
		complete:  complete,
		memQ:      make([]*request.Request, 0, cfg.Memory.MemQSize),
		mode:      sched.ModeMEM,
		banks:     make([]bankEntry, cfg.Memory.Banks),
		nonEmpty:  make([]uint64, (cfg.Memory.Banks+63)/64),
		// Every queued request can be in flight at once, so sizing the
		// buffer to both queues keeps Tick append-only after warmup.
		inflight: make([]inflight, 0, cfg.Memory.MemQSize+cfg.Memory.PIMQSize),
	}
	for b := range c.banks {
		c.banks[b] = bankEntry{epoch: never} // windows: see openWindows
	}
	c.gate, _ = policy.(sched.MemGate)
	c.timed, _ = policy.(sched.TimeSensitive)
	c.vw = view{c}
	return c
}

// Channel exposes the DRAM timing model (tests and detailed probes).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// SetSink attaches the controller's event stream to sink (nil detaches
// it).
func (c *Controller) SetSink(sink trace.Sink) { c.sink = sink }

// Residency is a controller's mode-residency account: the DRAM cycles it
// spent servicing MEM, servicing PIM, and draining toward a switch — each
// accounted cycle is exactly one of the three — plus the drain latency
// summed over every finished switch, whichever its direction
// (stats.Channel.DrainLatencySum counts MEM->PIM switches only).
type Residency struct {
	MemCycles, PIMCycles, DrainCycles uint64
	DrainSum                          uint64
}

// Residency returns the controller's residency account, exact through the
// last cycle its accounting closed (see SyncStats).
func (c *Controller) Residency() Residency { return c.res }

// SetFaults attaches the run's fault injector (nil disables injection)
// and forwards it to the DRAM timing model for CAS retries.
func (c *Controller) SetFaults(inj *faults.Injector) {
	c.flt = inj
	c.ch.SetFaults(inj, c.channelID)
}

// record hands one event to the sink: a command, admission or completion
// bound to request r (nil for none), or a switch boundary. done is the
// completion cycle the DRAM model returned for a column or PIM op.
func (c *Controller) record(kind trace.Kind, bank int, row uint32, r *request.Request, done uint64) {
	if c.sink == nil {
		return
	}
	e := trace.Event{Cycle: c.now, Done: done, Channel: c.channelID, Bank: bank, Row: row, Kind: kind, Mode: c.target}
	if r != nil {
		e.ReqID, e.Req = r.ID, r.Kind
		if r.PIM != nil {
			e.Op = r.PIM.Op
		}
	}
	c.sink.Record(e)
}

// Units exposes the PIM functional units.
func (c *Controller) Units() *pim.Units { return c.units }

// Mode returns the currently serviced mode.
func (c *Controller) Mode() sched.Mode { return c.mode }

// Switching reports whether a drain toward a mode switch is in progress.
func (c *Controller) Switching() bool { return c.switching }

// CanAccept reports whether a request of the given kind has queue space.
func (c *Controller) CanAccept(kind request.Kind) bool {
	if kind == request.PIMOp {
		return c.pimQ.Len() < c.mem.PIMQSize
	}
	return len(c.memQ) < c.mem.MemQSize
}

// Enqueue admits a request, stamping its controller arrival order (the
// age used by F3FS) and arrival cycle. It returns false without side
// effects when the corresponding queue is full.
func (c *Controller) Enqueue(req *request.Request) bool {
	req.AssertLive("memctrl: Enqueue")
	if !c.CanAccept(req.Kind) {
		return false
	}
	req.SeqNo = c.seq
	c.seq++
	req.ArriveMCCycle = c.now
	req.RowClassified = false
	c.issueKnown = false // a new candidate, or a new PIM head
	if req.Kind == request.PIMOp {
		c.pimQ.Push(req)
	} else {
		c.memQ = append(c.memQ, req)
		b := req.Bank
		e := &c.banks[b]
		if e.q == nil {
			c.openWindows() //pimlint:coldpath — once per controller, on its first MEM request
		}
		e.q = append(e.q, req)
		c.nonEmpty[b>>6] |= 1 << (b & 63)
		// A valid entry stays valid: the arrival is younger than everything
		// queued, so it becomes the bank's candidate only as its first row
		// hit. (An empty bank's entry is stale and derived when read.)
		if e.epoch == c.ch.RowEpoch(b) && e.hit == nil && c.ch.IsRowHit(b, req.Row) {
			e.hit, e.cand = req, candOf(req)
		}
	}
	c.record(trace.EvEnqueue, req.Bank, req.Row, req, 0)
	if invariant.Enabled {
		c.cons.enqueued++
	}
	return true
}

// openWindows gives every bank its window of the MEM queue, on the first
// MEM request (a PIM-only run never needs them). Worst case every queued
// MEM request targets one bank, so each bank's window can hold the whole
// MEM queue: one backing array, cut into capacity-capped windows, keeps
// Enqueue append-only.
func (c *Controller) openWindows() {
	q, n := make([]*request.Request, c.mem.Banks*c.mem.MemQSize), c.mem.MemQSize
	for b := range c.banks {
		c.banks[b].q = q[b*n : b*n : (b+1)*n]
	}
}

// QueueLens returns the current MEM and PIM queue occupancies.
func (c *Controller) QueueLens() (mem, pim int) { return len(c.memQ), c.pimQ.Len() }

// Held returns how many requests the controller holds: both queues plus
// those issued to DRAM and not yet complete.
func (c *Controller) Held() int { return len(c.memQ) + c.pimQ.Len() + len(c.inflight) }

// --- next-event scheduling -------------------------------------------------

const never = ^uint64(0)

// syncRange is the controller's only per-cycle accounting: it credits
// every DRAM cycle in [from, to] to the queue-occupancy sums, the
// mode-residency counters (drain cycles are tracked separately from the
// mode being drained) and the throttle count, under the caller's guarantee
// that the controller was quiescent across the range: no enqueue, no
// completion, no command issue, no arbitration change. All quantities are
// linear in the cycle count with frozen coefficients, so one call over a
// range equals one call per cycle. (The DRAM activity statistics are not
// here: the channel credits them when a command issues, see SyncStats.)
func (c *Controller) syncRange(from, to uint64) {
	if to < from {
		return
	}
	d := to - from + 1
	if c.st != nil {
		c.st.MemQOccupancySum += d * uint64(len(c.memQ))
		c.st.PIMQOccupancySum += d * uint64(c.pimQ.Len())
		c.st.SampledCycles += d
	}
	switch {
	case c.switching:
		c.res.DrainCycles += d
	case c.mode == sched.ModeMEM:
		c.res.MemCycles += d
	default:
		c.res.PIMCycles += d
	}
	c.flt.ThrottledRange(c.channelID, from, to)
}

// SyncTo closes the controller's deferred accounting through DRAM cycle
// now and stamps its clock, without running the command engines. The
// event engine calls it before enqueuing into a skipped controller (so
// ArriveMCCycle and trace timestamps match the per-cycle engine, whose
// drain stage runs with the clock one behind the tick). A no-op for cycles
// already accounted.
func (c *Controller) SyncTo(now uint64) {
	if now <= c.acct {
		return
	}
	c.syncRange(c.acct+1, now)
	c.acct = now
	c.now = now
}

// SyncStats makes the channel's statistics exact through DRAM cycle now:
// SyncTo, plus the DRAM activity figures (ActiveCycles, BankBusySum), which
// the channel keeps in closed form and writes out only here. Whoever reads
// stats.Channel or Residency mid-run or at the end of a run calls this
// first.
func (c *Controller) SyncStats(now uint64) {
	c.SyncTo(now)
	c.ch.PublishActivity(c.acct)
}

// NextEvent returns the earliest DRAM cycle strictly after now at which
// Tick could change controller, DRAM, policy, or statistics state beyond
// the closed-form accounting SyncTo reproduces. Its issue bound is the
// earliest issuable command: the cycle at which the current mode's engine,
// with queues and row buffers frozen, would issue something (in MEM mode a
// row hit's column or the oldest conflict's preparation, see scanMEM) —
// not the earliest cycle any queued request's command turns legal. It must
// be called when the controller's clock is at now (immediately after
// Tick(now) or SyncTo(now)); the sim must additionally wake the controller
// whenever it enqueues a request. Waking earlier than necessary is
// harmless — Tick is exact at every cycle — but waking late would diverge
// from the per-cycle engine, a contract pinned by the differential harness
// and the FuzzNextEvent fuzzer.
func (c *Controller) NextEvent(now uint64) uint64 {
	next := never
	// In-flight completions run before the throttle gate, so they are
	// not deferred by throttle windows.
	for i := range c.inflight {
		if at := c.inflight[i].doneAt; at < next {
			next = at
		}
	}
	// The result is floored at now+1, so once any bound reaches the
	// floor the remaining (more expensive) stages cannot lower it —
	// return immediately. In bus-saturated phases a completion is due
	// nearly every cycle, making this the common exit.
	if next <= now+1 {
		return now + 1
	}
	// Refresh outranks arbitration; while a deadline is due the
	// controller precharges/refreshes across consecutive cycles, so tick
	// them all rather than modeling the (bounded) sequence.
	if at := c.ch.RefreshAt(); at > 0 {
		if at <= now {
			return now + 1
		}
		if at < next {
			next = at
		}
	}
	if next <= now+1 {
		return now + 1
	}
	// Inside a throttle window the per-cycle engine consults nothing
	// past the gate (in particular not the policy, whose evaluation can
	// carry side effects like BLISS's clear clock). Tick through the
	// window rather than model it.
	if c.flt != nil && c.flt.Throttled(c.channelID, now) {
		return now + 1
	}
	if !c.switching {
		// Tick calls the policy's DesiredMode before OnIssue, so a
		// decision input mutated by this cycle's issue (an exhausted
		// bypass cap, an emptied queue) flips the desired mode only at
		// the next arbitration — which the per-cycle engine reaches at
		// the next unthrottled cycle. Policies are required to be
		// idempotent for frozen inputs, so the extra evaluation here is
		// equivalence-safe.
		if c.policy.DesiredMode(c.vw) != c.mode {
			// The switch starts at the next unthrottled cycle, but
			// completions (already folded into next) run before the
			// throttle gate — a window must not defer their wake.
			if at := c.flt.NextUnthrottled(c.channelID, now+1); at < next {
				next = at
			}
			if next <= now {
				return now + 1
			}
			return next
		}
		// Time-sensitive policies (BLISS's blacklist clear) re-decide on
		// a clock deadline even with frozen queues. The per-cycle engine
		// consults the policy only on unthrottled cycles.
		if c.timed != nil {
			at := c.flt.NextUnthrottled(c.channelID, c.timed.NextPolicyEvent(now))
			if at < next {
				next = at
			}
		}
		if next <= now+1 {
			return now + 1
		}
		if at := c.nextIssueAt(); at < next {
			next = at
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// command names the DRAM command a queued request needs next.
type command uint8

const (
	cmdActivate command = iota
	cmdPrecharge
	cmdColumn
	cmdPIMActivateAll
	cmdPIMPrechargeAll
	cmdPIMOp
)

// memNext maps a MEM access to row of bank onto the command the bank's
// row-buffer state calls for — closed: activate; another row open:
// precharge; its row open: the column access — and the earliest cycle the
// DRAM allows that command. issueMEM executes it iff the cycle has come;
// until then the cycle bounds the issue deadline (scanMEM).
func (c *Controller) memNext(bank int, row uint32, write bool) (command, uint64) {
	switch state, openRow := c.ch.State(bank); {
	case state == dram.Closed:
		return cmdActivate, c.ch.NextActivateAt(bank)
	case openRow != row:
		return cmdPrecharge, c.ch.NextPrechargeAt(bank)
	default:
		return cmdColumn, c.ch.NextColumnAt(bank, row, write)
	}
}

// pimNext is memNext for the PIM queue's head: the lockstep op when the
// all-bank row is open, else a broadcast precharge when any PIM-visible
// row buffer holds another row, else the broadcast activate. The op
// deadline doubles as the row-open test (never iff the row is not open),
// so the common case costs one bank scan.
func (c *Controller) pimNext(row uint32) (command, uint64) {
	if at := c.ch.NextPIMOpAt(row); at != never {
		return cmdPIMOp, at
	}
	if c.ch.NeedsPIMPrecharge() {
		return cmdPIMPrechargeAll, c.ch.NextPIMPrechargeAllAt()
	}
	return cmdPIMActivateAll, c.ch.NextPIMActivateAllAt()
}

// nextIssueAt returns the earliest cycle the current mode's issue engine
// issues a command on its frozen queue and row-buffer state, gated by throttle
// windows (which block new issue but not completions). never means no
// queued request can make progress until an enqueue, completion, or mode
// change. After a Tick that reached the issue stage and issued nothing the
// deadline is the one that Tick's scan left in issueAt; only a NextEvent
// asked without such a Tick before it (after an Enqueue, after an issued
// command) scans again, and keeps the answer for the next call.
func (c *Controller) nextIssueAt() uint64 {
	if !c.issueKnown {
		c.issueAt, c.issueKnown = c.scanIssueAt(), true
	} else if invariant.Enabled {
		c.checkIssueDeadline() //pimlint:coldpath — simdebug builds only
	}
	if c.issueAt == never {
		return never
	}
	return c.flt.NextUnthrottled(c.channelID, c.issueAt)
}

// scanIssueAt computes the current mode's issue deadline from scratch.
func (c *Controller) scanIssueAt() uint64 {
	if c.mode == sched.ModeMEM {
		return c.scanMEM(c.now).next
	}
	head := c.pimQ.Head()
	if head == nil {
		return never
	}
	_, at := c.pimNext(head.Row)
	return at
}

// --- sched.View ----------------------------------------------------------

type view struct{ c *Controller }

func (v view) Now() uint64      { return v.c.now }
func (v view) Mode() sched.Mode { return v.c.mode }
func (v view) MemQLen() int     { return len(v.c.memQ) }
func (v view) PIMQLen() int     { return v.c.pimQ.Len() }

func (v view) OldestOverall() (sched.Mode, bool) {
	c := v.c
	head := c.pimQ.Head()
	switch {
	case len(c.memQ) == 0 && head == nil:
		return sched.ModeMEM, false
	case len(c.memQ) == 0:
		return sched.ModePIM, true
	case head == nil:
		return sched.ModeMEM, true
	case c.memQ[0].SeqNo < head.SeqNo:
		return sched.ModeMEM, true
	default:
		return sched.ModePIM, true
	}
}

func (v view) MemRowHitAvailable() bool {
	c := v.c
	for w, word := range c.nonEmpty {
		for ; word != 0; word &= word - 1 {
			if c.entry(w<<6+bits.TrailingZeros64(word)).hit != nil {
				return true
			}
		}
	}
	return false
}

func (v view) PIMHeadRowOpen() bool {
	head := v.c.pimQ.Head()
	return head != nil && v.c.ch.PIMRowOpen(head.Row)
}

// View returns the policy-facing view of the controller (exposed for
// policy unit tests).
func (c *Controller) View() sched.View { return c.vw }

// --- tick ----------------------------------------------------------------

// Tick advances the controller by one DRAM cycle: completes in-flight
// requests, arbitrates the mode (starting or finishing a drain), and
// issues at most one DRAM command.
func (c *Controller) Tick(now uint64) {
	c.SyncTo(now)
	c.issueKnown = false // set again only by an issue stage that finds nothing legal
	c.completeInflight(now)
	if invariant.Enabled {
		c.checkInvariants() //pimlint:coldpath — simdebug builds only
	}
	if c.flt.Throttled(c.channelID, now) {
		// Throttle window: in-flight requests drained above, but no
		// refresh handling, arbitration, or new command issue.
		return
	}
	if c.ch.RefreshDue(now) {
		// All-bank refresh outranks mode arbitration: stall new issue,
		// drain in-flight requests, close every bank and refresh.
		if !c.drained() {
			return
		}
		if c.ch.AnyBankOpen() {
			if c.ch.CanPrechargeAllBanks(now) {
				c.ch.RefreshPrechargeAll(now)
				c.record(trace.EvPrechargeAll, -1, 0, nil, 0)
			}
			return
		}
		if c.ch.CanRefresh(now) {
			c.ch.Refresh(now)
			c.record(trace.EvRefresh, -1, 0, nil, 0)
		}
		return
	}
	c.arbitrate(now)
	if c.switching {
		if !c.drained() {
			return // draining: no new issue in any mode
		}
		c.finishSwitch(now)
	}
	if c.mode == sched.ModeMEM {
		c.issueMEM(now)
	} else {
		c.issuePIM(now)
	}
}

func (c *Controller) completeInflight(now uint64) {
	kept := c.inflight[:0]
	for _, f := range c.inflight {
		if f.doneAt <= now {
			c.record(trace.EvComplete, f.req.Bank, f.req.Row, f.req, 0)
			if invariant.Enabled {
				c.cons.completed++
			}
			if c.complete != nil {
				c.complete(f.req, now)
			}
		} else {
			kept = append(kept, f)
		}
	}
	c.inflight = kept
}

func (c *Controller) drained() bool { return len(c.inflight) == 0 }

func (c *Controller) arbitrate(now uint64) {
	if c.switching {
		return // committed to the latched target
	}
	desired := c.policy.DesiredMode(c.vw)
	if desired == c.mode {
		return
	}
	c.switching = true
	c.target = desired
	c.drainStart = now
	c.record(trace.EvSwitchStart, -1, 0, nil, 0)
}

func (c *Controller) finishSwitch(now uint64) {
	from := c.mode
	c.mode = c.target
	c.switching = false
	if c.st != nil {
		c.st.Switches++
		if from == sched.ModeMEM && c.mode == sched.ModePIM {
			c.st.MemToPIMSwitches++
			c.st.DrainLatencySum += now - c.drainStart
		}
	}
	c.res.DrainSum += now - c.drainStart
	c.policy.OnSwitch(c.vw, c.mode)
	c.record(trace.EvSwitchDone, -1, 0, nil, 0)
}

// --- MEM mode: FR-FCFS engine ----------------------------------------------

// bankEntry is one bank's share of the MEM queue and the answer FR-FCFS
// asks of it. q holds the bank's queued requests in arrival (SeqNo) order.
// hit and cand are derived from q and the bank's row buffer, and are valid
// while epoch equals the bank's dram row epoch: hit is the oldest row hit
// (nil when none) and cand the bank's candidate — hit when there is one,
// else the oldest request — copied densely, so a scan compares candidates
// without loading request objects. Only two things can move the answer: a
// row-buffer transition moves the dram epoch past the entry's, and a
// change of q either keeps the entry exact (Enqueue) or drops it (removeMem
// sets epoch to never, which no bank epoch reaches). Request
// objects are recycled after completion, so a dropped entry forgets the
// requests it named.
type bankEntry struct {
	q     []*request.Request
	epoch uint64
	hit   *request.Request
	cand  memCand
}

// memCand is a MEM request as the candidate scan reads it.
type memCand struct {
	req   *request.Request
	seq   uint64
	row   uint32
	write bool
}

func candOf(r *request.Request) memCand {
	return memCand{req: r, seq: r.SeqNo, row: r.Row, write: r.IsWrite()}
}

// derive computes bank b's entry for queue q from scratch.
func (c *Controller) derive(b int, q []*request.Request) bankEntry {
	e := bankEntry{q: q, epoch: c.ch.RowEpoch(b)}
	for _, r := range q {
		if c.ch.IsRowHit(b, r.Row) {
			e.hit = r
			break
		}
	}
	switch {
	case e.hit != nil:
		e.cand = candOf(e.hit)
	case len(q) > 0:
		e.cand = candOf(q[0])
	}
	return e
}

// entry returns bank b's entry, derived again only if it is stale.
func (c *Controller) entry(b int) *bankEntry {
	e := &c.banks[b]
	if e.epoch != c.ch.RowEpoch(b) {
		*e = c.derive(b, e.q)
	}
	return e
}

// classifyMem records a MEM request's hit/miss classification exactly once.
func (c *Controller) classifyMem(r *request.Request, hit bool) {
	if r.RowClassified {
		return
	}
	r.RowClassified = true
	r.WasRowHit = hit
	if hit {
		c.ch.NoteRowHit()
	} else {
		c.ch.NoteRowMiss(r.Bank)
	}
}

// memPick is what one pass over the MEM candidates finds.
type memPick struct {
	col *request.Request // oldest candidate whose column command is legal now
	// prep is the oldest candidate whose row is not open, prepCmd the
	// command that prepares its bank and prepAt the earliest cycle the DRAM
	// allows it — nil while the policy does not service conflicts: bank
	// preparation then waits for a mode switch.
	prep    *request.Request
	prepCmd command
	prepAt  uint64
	// next is the earliest cycle at which the pick, with the state frozen,
	// issues something: the earliest row-hit candidate's column deadline, or
	// prep's prepAt if that is sooner — never when there is neither. A
	// younger conflicted bank's preparation is no deadline: FR-FCFS prepares
	// only the oldest conflict, whichever bank becomes ready first.
	next uint64
	// colSeq and prepSeq are the SeqNo of col and prep.
	colSeq, prepSeq uint64
}

// scanMEM is the one pass over the MEM candidates, serving both questions
// the controller asks of them: which command to issue at cycle now
// (issueMEM) and, when none is legal, the earliest cycle the pick issues
// one (issueAt, hence NextEvent) — a row hit's column or the chosen
// preparation, the only commands FR-FCFS would issue. With row hits allowed
// the candidates are the non-empty banks' entries — the oldest row hit,
// else the oldest request, per bank; without, the engine is strict
// oldest-first and the only candidate is the MEM queue's head. A candidate
// whose row is open but whose column command is not yet legal is waiting
// on tCCD or the data bus.
func (c *Controller) scanMEM(now uint64) memPick {
	p := memPick{next: never}
	if len(c.memQ) == 0 {
		return p
	}
	rowHits, conflictsOK := c.memGates()
	if !rowHits {
		r := c.memQ[0]
		c.consider(&p, r.Bank, candOf(r), now, conflictsOK)
	} else {
		for w, word := range c.nonEmpty {
			for ; word != 0; word &= word - 1 {
				b := w<<6 + bits.TrailingZeros64(word)
				c.consider(&p, b, c.entry(b).cand, now, conflictsOK)
			}
		}
	}
	if p.prep != nil && p.prepAt < p.next {
		p.next = p.prepAt
	}
	return p
}

// memGates returns the policy's MEM-engine gates: may row hits bypass
// older requests, and may conflicted banks be prepared in place. Without a
// MemGate both are yes, the paper's FR-FCFS (Sec. III-D).
func (c *Controller) memGates() (rowHits, conflictsOK bool) {
	if c.gate == nil {
		return true, true
	}
	return c.gate.MemRowHitsAllowed(c.vw), c.gate.MemConflictServiceAllowed(c.vw)
}

// consider folds bank's candidate m into the pick p. Only a row hit's
// column deadline goes into p.next; scanMEM adds the chosen preparation's
// once every candidate is seen.
func (c *Controller) consider(p *memPick, bank int, m memCand, now uint64, conflictsOK bool) {
	cmd, at := c.memNext(bank, m.row, m.write)
	switch {
	case cmd == cmdColumn:
		if at <= now && (p.col == nil || m.seq < p.colSeq) {
			p.col, p.colSeq = m.req, m.seq
		}
		if at < p.next {
			p.next = at
		}
	case !conflictsOK:
	case p.prep == nil || m.seq < p.prepSeq:
		p.prep, p.prepSeq, p.prepCmd, p.prepAt = m.req, m.seq, cmd, at
	}
}

// issueMEM issues at most one DRAM command for the MEM queue, following
// the priority (1) column command for the oldest serviceable row-hit
// candidate, (2) activate/precharge preparation for the oldest
// non-hitting candidate, subject to the policy's bypass and
// conflict-service gates. When conflict service is disallowed (the
// FR-FCFS conflict-bit stall), non-hitting banks idle until the policy
// switches modes. With nothing legal to issue it leaves the scan's
// deadline for NextEvent.
func (c *Controller) issueMEM(now uint64) {
	p := c.scanMEM(now)
	if col := p.col; col != nil {
		c.classifyMem(col, true)
		var done uint64
		if c.mem.Page == config.PageClosed {
			done = c.ch.ColumnAP(col.Bank, col.Row, col.IsWrite(), now)
		} else {
			done = c.ch.Column(col.Bank, col.Row, col.IsWrite(), now)
		}
		c.record(trace.EvColumn, col.Bank, col.Row, col, done)
		c.removeMem(col)
		c.inflight = append(c.inflight, inflight{req: col, doneAt: done})
		c.notifyIssue(c.vw, col, col.WasRowHit)
		return
	}
	prep := p.prep
	if prep == nil || p.prepAt > now {
		c.issueAt, c.issueKnown = p.next, true
		return
	}
	c.classifyMem(prep, false)
	if p.prepCmd == cmdActivate {
		c.ch.Activate(prep.Bank, prep.Row, now)
		c.record(trace.EvActivate, prep.Bank, prep.Row, prep, 0)
	} else {
		_, openRow := c.ch.State(prep.Bank)
		c.ch.Precharge(prep.Bank, now)
		c.record(trace.EvPrecharge, prep.Bank, openRow, prep, 0)
	}
}

func (c *Controller) removeMem(r *request.Request) {
	b := r.Bank
	bq := c.banks[b].q
	for i, q := range bq {
		if q == r {
			copy(bq[i:], bq[i+1:])
			bq[len(bq)-1] = nil
			bq = bq[:len(bq)-1]
			break
		}
	}
	// The entry is dropped, not just made stale: r's object is recycled
	// once it completes, and no index may still name it then.
	c.banks[b] = bankEntry{q: bq, epoch: never}
	if len(bq) == 0 {
		c.nonEmpty[b>>6] &^= 1 << (b & 63)
	}
	for i, q := range c.memQ {
		if q == r {
			// Shift down in place: append(c.memQ[:i], rest...) reads as
			// the same operation but is a cross-slice append the
			// allocation lint can't prove in-place.
			copy(c.memQ[i:], c.memQ[i+1:])
			c.memQ[len(c.memQ)-1] = nil
			c.memQ = c.memQ[:len(c.memQ)-1]
			return
		}
	}
	panic(fmt.Sprintf("memctrl: request %v not in MEM queue", r)) //pimlint:coldpath
}

// --- PIM mode: FCFS lockstep engine ------------------------------------------

// issuePIM services the head of the PIM queue: a lockstep op when the
// all-bank row is open, otherwise broadcast precharge/activate to open the
// head's row. A head request first observed with its row closed (a block
// boundary) is classified as a lockstep miss. With nothing legal to issue
// it leaves the head's deadline for NextEvent.
func (c *Controller) issuePIM(now uint64) {
	head := c.pimQ.Head()
	if head == nil {
		c.issueAt, c.issueKnown = never, true
		return
	}
	cmd, at := c.pimNext(head.Row)
	if cmd != cmdPIMOp {
		head.RowClassified = true // row change observed: lockstep miss
	}
	if at > now {
		c.issueAt, c.issueKnown = at, true
		return
	}
	switch cmd {
	case cmdPIMPrechargeAll:
		c.ch.PIMPrechargeAll(now)
		c.record(trace.EvPIMPrechargeAll, -1, 0, head, 0)
	case cmdPIMActivateAll:
		c.ch.PIMActivateAll(head.Row, now)
		c.record(trace.EvPIMActivateAll, -1, head.Row, head, 0)
	case cmdPIMOp:
		hit := !head.RowClassified // never saw a row change for this op
		head.RowClassified = true
		head.WasRowHit = hit
		if err := c.units.Execute(head.PIM); err != nil {
			panic(fmt.Sprintf("memctrl: channel %d: %v", c.channelID, err)) //pimlint:coldpath
		}
		done := c.ch.PIMOp(head.Row, hit, now)
		c.record(trace.EvPIMOp, -1, head.Row, head, done)
		c.pimQ.Pop()
		c.inflight = append(c.inflight, inflight{req: head, doneAt: done})
		c.notifyIssue(c.vw, head, hit)
	}
}

func (c *Controller) notifyIssue(v sched.View, r *request.Request, rowHit bool) {
	info := sched.IssueInfo{RowHit: rowHit}
	if r.Kind == request.PIMOp {
		info.Mode = sched.ModePIM
		info.BypassedOlderOtherMode = len(c.memQ) > 0 && c.memQ[0].SeqNo < r.SeqNo
		// PIM executes FCFS, so same-mode bypass is impossible.
	} else {
		info.Mode = sched.ModeMEM
		head := c.pimQ.Head()
		info.BypassedOlderOtherMode = head != nil && head.SeqNo < r.SeqNo
		info.BypassedOlderSameMode = len(c.memQ) > 0 && c.memQ[0].SeqNo < r.SeqNo
	}
	c.policy.OnIssue(v, info)
}
