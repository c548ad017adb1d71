package sched

// GatherIssue is the Gather & Issue policy (Lee et al., Sec. III-D policy
// 8): PIM requests are gathered in the PIM queue until its occupancy
// reaches a high watermark (56 in the paper), at which point the
// controller switches to PIM mode and drains the queue until occupancy
// falls below a low watermark (32). Outside a drain the controller serves
// MEM requests.
type GatherIssue struct {
	// High and Low are the PIM-queue occupancy watermarks.
	High, Low int

	draining bool
}

// NewGatherIssue returns the G&I policy.
func NewGatherIssue(high, low int) *GatherIssue {
	return &GatherIssue{High: high, Low: low}
}

// Name implements Policy.
func (*GatherIssue) Name() string { return "gather-issue" }

// DesiredMode implements Policy.
func (p *GatherIssue) DesiredMode(v View) Mode {
	pimLen := v.PIMQLen()
	if p.draining {
		if pimLen <= p.Low {
			p.draining = false
		} else {
			return ModePIM
		}
	}
	if pimLen >= p.High {
		p.draining = true
		return ModePIM
	}
	if v.MemQLen() > 0 {
		return ModeMEM
	}
	if pimLen > 0 && v.MemQLen() == 0 {
		// Nothing else to do; issue PIM work rather than idle. This
		// also lets a finishing PIM kernel drain its tail below the
		// watermark.
		return ModePIM
	}
	return v.Mode()
}

// OnIssue implements Policy.
func (*GatherIssue) OnIssue(View, IssueInfo) {}

// OnSwitch implements Policy.
func (*GatherIssue) OnSwitch(View, Mode) {}
