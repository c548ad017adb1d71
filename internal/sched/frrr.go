package sched

// FRRRFCFS is First-Ready Round-Robin FCFS (Jog et al., adapted per
// Sec. III-D policy 7): FR-FCFS that cycles through modes on row-buffer
// conflicts, implementing the priority order (1) row hit first, (2) next
// mode in round-robin order first, (3) oldest first within the current
// mode. It is the fairest baseline in the paper's characterization.
//
// The priority order is per request selection, not per mode residency: a
// conflict hands the channel to the other mode, where the oldest request
// is serviced even if it also conflicts (its precharge/activate are
// performed). Each turn therefore serves at least one request — without
// this, a mode whose queued rows were all displaced by the other mode's
// activity would be rotated away from before receiving any service and
// starve. Within its turn the current mode runs the default FR-FCFS
// engine, conflicted banks prepared in parallel; the turn ends at the
// instant no current-mode row hit exists anywhere.
type FRRRFCFS struct {
	served bool // a request was issued since the last switch
}

// NewFRRRFCFS returns the round-robin FR-FCFS policy.
func NewFRRRFCFS() *FRRRFCFS { return &FRRRFCFS{served: true} }

// Name implements Policy.
func (*FRRRFCFS) Name() string { return "fr-rr-fcfs" }

// DesiredMode implements Policy: stay while the current mode still has
// row hits to serve (or has not yet received its turn's first service);
// on a conflict hand the channel to the other mode if it has work
// (round-robin with two modes = alternate).
func (p *FRRRFCFS) DesiredMode(v View) Mode {
	switch v.Mode() {
	case ModeMEM:
		if v.MemQLen() == 0 {
			if v.PIMQLen() > 0 {
				return ModePIM
			}
			return ModeMEM
		}
		if !p.served {
			return ModeMEM // the turn's oldest request is still owed service
		}
		if !v.MemRowHitAvailable() && v.PIMQLen() > 0 {
			return ModePIM
		}
		return ModeMEM
	default:
		if v.PIMQLen() == 0 {
			if v.MemQLen() > 0 {
				return ModeMEM
			}
			return ModePIM
		}
		if !p.served {
			return ModePIM
		}
		if !v.PIMHeadRowOpen() && v.MemQLen() > 0 {
			return ModeMEM
		}
		return ModePIM
	}
}

// OnIssue implements Policy.
func (p *FRRRFCFS) OnIssue(View, IssueInfo) { p.served = true }

// OnSwitch implements Policy: a new turn begins.
func (p *FRRRFCFS) OnSwitch(View, Mode) { p.served = false }
