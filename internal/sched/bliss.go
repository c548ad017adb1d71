package sched

// BLISS is the Blacklisting Memory Scheduler (Subramanian et al., adapted
// to PIM modes per Sec. III-D policy 6): an application that is served
// more than Threshold consecutive requests is blacklisted, after which the
// priority order is (1) non-blacklisted application first, (2) row hit
// first, (3) oldest first. The blacklist is cleared every ClearInterval
// DRAM cycles. With one GPU kernel and one PIM kernel co-executing, the
// application granularity coincides with the request mode. The blacklist,
// not conflict-bit stalling, provides fairness, so MEM mode runs the
// default FR-FCFS engine with conflicts serviced in place.
type BLISS struct {
	// Threshold is the consecutive-service count that triggers
	// blacklisting (4 in the paper).
	Threshold int
	// ClearInterval is the blacklist clearing period in DRAM cycles
	// ("every few thousand cycles").
	ClearInterval int

	blacklisted [2]bool // indexed by Mode
	lastMode    Mode
	streak      int
	haveLast    bool
	lastClear   uint64
	base        FRFCFS
}

// NewBLISS returns the blacklisting policy.
func NewBLISS(threshold, clearInterval int) *BLISS {
	return &BLISS{Threshold: threshold, ClearInterval: clearInterval}
}

// Name implements Policy.
func (*BLISS) Name() string { return "bliss" }

func (p *BLISS) maybeClear(now uint64) {
	if now >= p.lastClear+uint64(p.ClearInterval) {
		p.blacklisted[ModeMEM] = false
		p.blacklisted[ModePIM] = false
		p.lastClear = now
	}
}

// DesiredMode implements Policy: prefer the mode of a non-blacklisted
// application with pending requests; fall back to FR-FCFS behavior when
// both or neither side is blacklisted.
func (p *BLISS) DesiredMode(v View) Mode {
	p.maybeClear(v.Now())
	memPending := v.MemQLen() > 0
	pimPending := v.PIMQLen() > 0
	switch {
	case !memPending && !pimPending:
		return v.Mode()
	case memPending && !pimPending:
		return ModeMEM
	case pimPending && !memPending:
		return ModePIM
	}
	memBL, pimBL := p.blacklisted[ModeMEM], p.blacklisted[ModePIM]
	switch {
	case memBL && !pimBL:
		return ModePIM
	case pimBL && !memBL:
		return ModeMEM
	default:
		// Tie: BLISS devolves into FR-FCFS (the paper observes it
		// spends ~60% of its time in this state at threshold 4).
		return p.base.DesiredMode(v)
	}
}

// OnIssue implements Policy: track consecutive services per application
// and blacklist past the threshold.
func (p *BLISS) OnIssue(v View, info IssueInfo) {
	p.maybeClear(v.Now())
	if p.haveLast && info.Mode == p.lastMode {
		p.streak++
	} else {
		p.streak = 1
		p.lastMode = info.Mode
		p.haveLast = true
	}
	if p.streak > p.Threshold {
		p.blacklisted[info.Mode] = true
	}
}

// NextPolicyEvent implements TimeSensitive: the blacklist clears when the
// controller's clock reaches lastClear+ClearInterval, so a quiescent
// controller must re-evaluate DesiredMode then. A clamp to now+1 covers an
// already-overdue clear (maybeClear runs on the very next evaluation).
func (p *BLISS) NextPolicyEvent(now uint64) uint64 {
	at := p.lastClear + uint64(p.ClearInterval)
	if at <= now {
		return now + 1
	}
	return at
}

// OnSwitch implements Policy.
func (*BLISS) OnSwitch(View, Mode) {}
