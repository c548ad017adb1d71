// Package sched defines the memory-controller mode-switching policy
// interface and implements the eight baseline policies the paper evaluates
// (Sec. III-D): FCFS, MEM-First, PIM-First, FR-FCFS, FR-FCFS-Cap, BLISS,
// FR-RR-FCFS, and Gather&Issue. The paper's proposed policy, F3FS, builds
// on this interface in package core.
//
// The controller/policy split follows the paper's structure: the
// controller owns the MEM and PIM queues and the within-mode engines
// (FR-FCFS over banks within MEM mode, FCFS within PIM mode — "Each of the
// above described policies use FR-FCFS within MEM mode, except FCFS, while
// PIM requests always execute in FCFS order"), while the policy decides
// which mode to service and, through the optional MemGate, whether row
// hits may keep bypassing older requests and whether row conflicts may be
// serviced in place or must stall awaiting a switch.
package sched

// Mode is the memory-controller servicing mode.
type Mode uint8

const (
	// ModeMEM services ordinary loads/stores from the MEM queue.
	ModeMEM Mode = iota
	// ModePIM services lockstep PIM operations from the PIM queue.
	ModePIM
)

// String returns "MEM" or "PIM".
func (m Mode) String() string {
	if m == ModePIM {
		return "PIM"
	}
	return "MEM"
}

// Other returns the opposite mode.
func (m Mode) Other() Mode {
	if m == ModePIM {
		return ModeMEM
	}
	return ModePIM
}

// View is the read-only controller state a policy may consult. One View
// describes one channel at one DRAM cycle.
type View interface {
	// Now is the current DRAM cycle.
	Now() uint64
	// Mode is the mode currently being serviced.
	Mode() Mode
	// MemQLen and PIMQLen are the queue occupancies.
	MemQLen() int
	PIMQLen() int
	// OldestOverall reports the mode of the oldest queued request by
	// controller arrival order (SeqNo); ok is false when both queues
	// are empty.
	OldestOverall() (mode Mode, ok bool)
	// MemRowHitAvailable reports whether any queued MEM request targets
	// a currently open row.
	MemRowHitAvailable() bool
	// PIMHeadRowOpen reports whether the head PIM request targets the
	// row currently open across all banks (i.e. the next PIM op is a
	// lockstep row hit; false at block boundaries or when banks are
	// closed/mixed).
	PIMHeadRowOpen() bool
}

// IssueInfo describes one request issue event reported to the policy.
type IssueInfo struct {
	// Mode is the mode of the issued request.
	Mode Mode
	// RowHit reports whether the request was serviced as a row-buffer
	// hit (MEM) or a lockstep row hit (PIM).
	RowHit bool
	// BypassedOlderSameMode reports whether an older queued request of
	// the same mode was bypassed.
	BypassedOlderSameMode bool
	// BypassedOlderOtherMode reports whether an older queued request of
	// the other mode was waiting (the bypass F3FS caps).
	BypassedOlderOtherMode bool
}

// Policy decides when the controller switches between MEM and PIM modes.
// Implementations are per-channel and need not be safe for concurrent use.
// Inside MEM mode the controller runs plain FR-FCFS (Sec. III-D); a policy
// that changes that engine also implements MemGate.
type Policy interface {
	// Name is the short identifier used in reports ("fr-fcfs", "f3fs").
	Name() string
	// DesiredMode returns the mode the controller should service given
	// the current view. When it differs from v.Mode() the controller
	// drains in-flight requests and switches.
	DesiredMode(v View) Mode
	// OnIssue reports a completed scheduling decision.
	OnIssue(v View, info IssueInfo)
	// OnSwitch reports a completed mode switch.
	OnSwitch(v View, to Mode)
}

// PolicyFactory builds a fresh per-channel policy instance.
type PolicyFactory func() Policy

// MemGate is implemented by policies that change the within-MEM FR-FCFS
// engine. A policy without it gets the paper's default: row hits may
// bypass older requests, and conflicts are serviced in place.
type MemGate interface {
	// MemRowHitsAllowed reports whether the within-MEM engine may let
	// row hits bypass older MEM requests this cycle. FCFS and a
	// cap-exceeded FR-FCFS-Cap return false, forcing oldest-first.
	MemRowHitsAllowed(v View) bool
	// MemConflictServiceAllowed reports whether the within-MEM engine
	// may precharge/activate for a row-missing request this cycle, or
	// whether conflicted banks must stall awaiting a mode switch (the
	// FR-FCFS conflict-bit behavior when the oldest request belongs to
	// the other mode).
	MemConflictServiceAllowed(v View) bool
}

// TimeSensitive is implemented by policies whose decisions can change
// purely because time passes, with no queue or issue activity (today only
// BLISS, whose blacklist clears every ClearInterval cycles). The event
// engine must wake a quiescent controller at NextPolicyEvent so a lazily
// evaluated DesiredMode sees the same clock the per-cycle engine would.
// Policies that mutate state only in DesiredMode/OnIssue/OnSwitch as a
// function of the queues need not implement it.
type TimeSensitive interface {
	// NextPolicyEvent returns the earliest cycle strictly after now at
	// which the policy's outputs could change with unchanged queues.
	// Returning early is harmless; returning late breaks tick/event
	// equivalence.
	NextPolicyEvent(now uint64) uint64
}
