package sched

// SMSBatch is an extension baseline adapted from the Staged Memory
// Scheduler (Ausavarungnirun et al., ISCA'12), which the paper's related
// work discusses but does not evaluate: requests are grouped into
// per-source batches and batches are scheduled atomically. The paper
// argues SMS is unsuitable for host/PIM sharing because CPU/GPU batches
// can be serviced on different banks in parallel while MEM/PIM batches
// cannot — every batch boundary here is a full mode switch with drain,
// which is exactly the overhead this adaptation lets you measure.
//
// The adaptation serves up to BatchSize requests of the current mode,
// then hands the channel to the other mode's batch if it has work.
type SMSBatch struct {
	// BatchSize is the per-source batch length.
	BatchSize int

	issuedInBatch int
}

// NewSMSBatch returns the batch scheduler with the given batch length.
func NewSMSBatch(batchSize int) *SMSBatch { return &SMSBatch{BatchSize: batchSize} }

// Name implements Policy.
func (*SMSBatch) Name() string { return "sms-batch" }

// DesiredMode implements Policy.
func (p *SMSBatch) DesiredMode(v View) Mode {
	cur := v.Mode()
	curLen, otherLen := v.MemQLen(), v.PIMQLen()
	if cur == ModePIM {
		curLen, otherLen = otherLen, curLen
	}
	switch {
	case curLen == 0 && otherLen > 0:
		return cur.Other()
	case p.issuedInBatch >= p.BatchSize && otherLen > 0:
		return cur.Other()
	default:
		return cur
	}
}

// OnIssue implements Policy.
func (p *SMSBatch) OnIssue(_ View, _ IssueInfo) { p.issuedInBatch++ }

// OnSwitch implements Policy: a new batch begins.
func (p *SMSBatch) OnSwitch(View, Mode) { p.issuedInBatch = 0 }
