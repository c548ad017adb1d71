package sched

// FCFS executes requests strictly in controller arrival order, switching
// modes whenever the oldest request belongs to the other mode
// (Sec. III-D policy 1). It is the only policy that also runs FCFS within
// MEM mode, which is why it implements MemGate.
type FCFS struct{}

// NewFCFS returns the first-come first-served policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Policy.
func (*FCFS) Name() string { return "fcfs" }

// DesiredMode implements Policy: follow the oldest request.
func (*FCFS) DesiredMode(v View) Mode {
	if m, ok := v.OldestOverall(); ok {
		return m
	}
	return v.Mode()
}

// MemRowHitsAllowed implements MemGate: strict arrival order, no bypass.
func (*FCFS) MemRowHitsAllowed(View) bool { return false }

// MemConflictServiceAllowed implements MemGate: the oldest request is by
// definition in the current mode (otherwise DesiredMode switches), so
// conflicts are serviced in place.
func (*FCFS) MemConflictServiceAllowed(View) bool { return true }

// OnIssue implements Policy.
func (*FCFS) OnIssue(View, IssueInfo) {}

// OnSwitch implements Policy.
func (*FCFS) OnSwitch(View, Mode) {}

// MemFirst always services MEM requests when any exist (Sec. III-D policy
// 2; used by prior art such as Chopim). PIM requests run only when the MEM
// queue is empty, so PIM kernels can starve.
type MemFirst struct{}

// NewMemFirst returns the MEM-First policy.
func NewMemFirst() *MemFirst { return &MemFirst{} }

// Name implements Policy.
func (*MemFirst) Name() string { return "mem-first" }

// DesiredMode implements Policy.
func (*MemFirst) DesiredMode(v View) Mode {
	if v.MemQLen() > 0 {
		return ModeMEM
	}
	if v.PIMQLen() > 0 {
		return ModePIM
	}
	return v.Mode()
}

// OnIssue implements Policy.
func (*MemFirst) OnIssue(View, IssueInfo) {}

// OnSwitch implements Policy.
func (*MemFirst) OnSwitch(View, Mode) {}

// PIMFirst always services PIM requests when any exist (Sec. III-D policy
// 3), the mirror image of MemFirst.
type PIMFirst struct{}

// NewPIMFirst returns the PIM-First policy.
func NewPIMFirst() *PIMFirst { return &PIMFirst{} }

// Name implements Policy.
func (*PIMFirst) Name() string { return "pim-first" }

// DesiredMode implements Policy.
func (*PIMFirst) DesiredMode(v View) Mode {
	if v.PIMQLen() > 0 {
		return ModePIM
	}
	if v.MemQLen() > 0 {
		return ModeMEM
	}
	return v.Mode()
}

// OnIssue implements Policy.
func (*PIMFirst) OnIssue(View, IssueInfo) {}

// OnSwitch implements Policy.
func (*PIMFirst) OnSwitch(View, Mode) {}
