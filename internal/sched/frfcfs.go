package sched

// FRFCFS is first-ready FCFS adapted to PIM mode switching (Sec. III-D
// policy 4): row-buffer hits bypass older requests; when the oldest
// request overall belongs to the other mode, banks whose candidates all
// conflict stall (their conflict bit is set), and the controller switches
// once no current-mode request can be serviced as a row hit — i.e. once
// every bank with pending work is in conflict.
type FRFCFS struct{}

// NewFRFCFS returns the FR-FCFS policy.
func NewFRFCFS() *FRFCFS { return &FRFCFS{} }

// Name implements Policy.
func (*FRFCFS) Name() string { return "fr-fcfs" }

// DesiredMode implements Policy.
func (*FRFCFS) DesiredMode(v View) Mode {
	oldest, ok := v.OldestOverall()
	if !ok {
		return v.Mode()
	}
	switch v.Mode() {
	case ModeMEM:
		if v.MemQLen() == 0 {
			if v.PIMQLen() > 0 {
				return ModePIM
			}
			return ModeMEM
		}
		// Switch only when the oldest request is PIM and every bank
		// with pending MEM work is conflicted (no row hit anywhere).
		if oldest == ModePIM && !v.MemRowHitAvailable() {
			return ModePIM
		}
		return ModeMEM
	default: // ModePIM
		if v.PIMQLen() == 0 {
			if v.MemQLen() > 0 {
				return ModeMEM
			}
			return ModePIM
		}
		// PIM executes in lockstep: the "conflict" analogue is the
		// head op targeting a different row (a block boundary).
		if oldest == ModeMEM && !v.PIMHeadRowOpen() {
			return ModeMEM
		}
		return ModePIM
	}
}

// MemRowHitsAllowed implements MemGate.
func (*FRFCFS) MemRowHitsAllowed(View) bool { return true }

// MemConflictServiceAllowed implements MemGate: when the oldest request
// belongs to the other mode, conflicted banks stall awaiting the switch
// (the per-bank conflict-bit behavior of Sec. III-D); otherwise conflicts
// are serviced in place.
func (*FRFCFS) MemConflictServiceAllowed(v View) bool {
	oldest, ok := v.OldestOverall()
	return !ok || oldest == v.Mode()
}

// OnIssue implements Policy.
func (*FRFCFS) OnIssue(View, IssueInfo) {}

// OnSwitch implements Policy.
func (*FRFCFS) OnSwitch(View, Mode) {}

// FRFCFSCap is FR-FCFS with a cap on the number of row-buffer hits that
// may bypass the oldest request (Sec. III-D policy 5, after Mutlu &
// Moscibroda's stall-time fair CAP; the paper sets it to 32 empirically).
// Once the cap is reached the engine falls back to oldest-first service,
// which also forces a mode switch when the oldest request belongs to the
// other mode.
type FRFCFSCap struct {
	base FRFCFS
	// Cap is the maximum consecutive row-hit bypasses of the oldest
	// request.
	Cap int

	hitsSinceOldest int
}

// NewFRFCFSCap returns the capped FR-FCFS policy.
func NewFRFCFSCap(cap int) *FRFCFSCap { return &FRFCFSCap{Cap: cap} }

// Name implements Policy.
func (*FRFCFSCap) Name() string { return "fr-fcfs-cap" }

func (p *FRFCFSCap) capped() bool { return p.hitsSinceOldest >= p.Cap }

// DesiredMode implements Policy.
func (p *FRFCFSCap) DesiredMode(v View) Mode {
	if p.capped() {
		// Oldest-first: follow the oldest request's mode.
		if m, ok := v.OldestOverall(); ok {
			return m
		}
		return v.Mode()
	}
	return p.base.DesiredMode(v)
}

// MemRowHitsAllowed implements MemGate.
func (p *FRFCFSCap) MemRowHitsAllowed(View) bool { return !p.capped() }

// MemConflictServiceAllowed implements MemGate.
func (p *FRFCFSCap) MemConflictServiceAllowed(v View) bool {
	if p.capped() {
		return true // serving the oldest request, conflicts included
	}
	return p.base.MemConflictServiceAllowed(v)
}

// OnIssue implements Policy: count row hits that bypassed an older
// request. The window clears only when the oldest request itself is
// serviced (an issue that bypassed nothing), not on arbitrary misses —
// the CAP protects the oldest request's wait time.
func (p *FRFCFSCap) OnIssue(_ View, info IssueInfo) {
	bypassed := info.BypassedOlderSameMode || info.BypassedOlderOtherMode
	switch {
	case info.RowHit && bypassed:
		p.hitsSinceOldest++
	case !bypassed:
		p.hitsSinceOldest = 0
	}
}

// OnSwitch implements Policy.
func (p *FRFCFSCap) OnSwitch(View, Mode) { p.hitsSinceOldest = 0 }
