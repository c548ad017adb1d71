package core

import "repro/internal/sched"

// ModeCapFRFCFS is the intermediate design point of the Fig. 14a
// ablation: FR-FCFS switching behavior (row hits first, conflict-bit
// stalls, switch at all-bank conflicts) with the CAP moved from row-buffer
// hits (FR-FCFS-Cap) to *requests serviced in the current mode that
// bypass an older other-mode request* — F3FS's counting — but without the
// current-mode-first arbitration stage.
type ModeCapFRFCFS struct {
	base sched.FRFCFS
	// Cap bounds same-mode bypasses of an older other-mode request.
	Cap int

	bypasses int
}

// NewModeCapFRFCFS builds the stage-1 ablation policy.
func NewModeCapFRFCFS(cap int) *ModeCapFRFCFS { return &ModeCapFRFCFS{Cap: cap} }

// Name implements sched.Policy.
func (*ModeCapFRFCFS) Name() string { return "mode-cap-fr-fcfs" }

// DesiredMode implements sched.Policy: FR-FCFS switching, plus a forced
// switch when the mode-bypass cap is exhausted against an older
// other-mode request.
func (p *ModeCapFRFCFS) DesiredMode(v sched.View) sched.Mode {
	if p.bypasses >= p.Cap {
		if oldest, ok := v.OldestOverall(); ok && oldest != v.Mode() {
			other := v.Mode().Other()
			if (other == sched.ModePIM && v.PIMQLen() > 0) || (other == sched.ModeMEM && v.MemQLen() > 0) {
				return other
			}
		}
	}
	return p.base.DesiredMode(v)
}

// MemRowHitsAllowed implements sched.MemGate: unlike FR-FCFS-Cap, row hits
// are never capped — the CAP counts mode bypasses instead.
func (*ModeCapFRFCFS) MemRowHitsAllowed(sched.View) bool { return true }

// MemConflictServiceAllowed implements sched.MemGate (FR-FCFS's
// conflict-bit stall).
func (p *ModeCapFRFCFS) MemConflictServiceAllowed(v sched.View) bool {
	return p.base.MemConflictServiceAllowed(v)
}

// OnIssue implements sched.Policy.
func (p *ModeCapFRFCFS) OnIssue(_ sched.View, info sched.IssueInfo) {
	if info.BypassedOlderOtherMode {
		p.bypasses++
	}
}

// OnSwitch implements sched.Policy.
func (p *ModeCapFRFCFS) OnSwitch(sched.View, sched.Mode) { p.bypasses = 0 }

var _ sched.Policy = (*ModeCapFRFCFS)(nil)
