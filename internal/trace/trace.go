// Package trace is the memory side's command stream: every command a
// memory controller issues, every request it admits and completes, and
// every mode-switch boundary, as one typed Event handed to a Sink. A
// controller with no sink pays one interface test per event. Ring is the
// sink behind `pim trace`: the most recent events of one channel.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/request"
	"repro/internal/sched"
)

// Kind classifies an event.
type Kind uint8

const (
	// EvEnqueue: a request entered the MEM or PIM queue.
	EvEnqueue Kind = iota
	// EvActivate/EvPrecharge/EvColumn: MEM-mode bank commands.
	EvActivate
	EvPrecharge
	EvColumn
	// EvPIMPrechargeAll/EvPIMActivateAll/EvPIMOp: PIM-mode broadcast
	// commands.
	EvPIMPrechargeAll
	EvPIMActivateAll
	EvPIMOp
	// EvSwitchStart/EvSwitchDone: mode-switch drain boundaries.
	EvSwitchStart
	EvSwitchDone
	// EvPrechargeAll/EvRefresh: the all-bank precharge that closes
	// every open bank before a refresh, and the all-bank refresh.
	EvPrechargeAll
	EvRefresh
	// EvComplete: a request finished at the DRAM.
	EvComplete
	// NumKinds is the number of kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"enqueue", "act", "pre", "col",
	"pim-pre-all", "pim-act-all", "pim-op",
	"switch-start", "switch-done", "pre-all", "refresh", "complete",
}

// String returns the event mnemonic.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one controller event.
type Event struct {
	// Cycle is the DRAM cycle of the event.
	Cycle uint64
	// Done is the DRAM cycle a column or PIM op completes at, any
	// ECC/CAS retry included; 0 for every other kind.
	Done uint64
	// ReqID is the request involved (0 when not request-bound).
	ReqID uint64
	// Channel is the controller's channel index.
	Channel int
	// Bank/Row qualify bank commands (Bank is -1 for broadcast).
	Bank int
	Row  uint32
	// Kind classifies the event.
	Kind Kind
	// Req and Op are request ReqID's kind and, for a PIM request, its
	// operation.
	Req request.Kind
	Op  request.PIMOpKind
	// Mode is the mode the controller serves or, while a switch drains,
	// the mode it switches to: on a switch event, the target (the
	// source is the other mode).
	Mode sched.Mode
}

// String renders the event as one trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10d ch%-2d %-13s", e.Cycle, e.Channel, e.Kind)
	if e.Bank >= 0 {
		fmt.Fprintf(&b, " b%-2d", e.Bank)
	} else {
		b.WriteString(" b--")
	}
	fmt.Fprintf(&b, " row%-6d", e.Row)
	if e.ReqID != 0 {
		fmt.Fprintf(&b, " req#%-8d", e.ReqID)
	}
	switch e.Kind {
	case EvEnqueue, EvColumn:
		b.WriteString(" " + e.Req.String())
	case EvPIMOp:
		b.WriteString(" " + e.Op.String())
	case EvSwitchStart, EvSwitchDone:
		b.WriteString(" " + e.Mode.Other().String() + "->" + e.Mode.String())
	}
	return b.String()
}

// Sink receives the event stream. Record runs on the per-cycle path, so
// an implementation must not allocate.
type Sink interface {
	Record(Event)
}

// Ring is a Sink keeping the most recent events of one channel.
type Ring struct {
	channel int
	events  []Event
	next    int
	filled  bool
}

// NewRing builds a ring keeping channel's most recent capacity events;
// capacity must be at least 1.
func NewRing(channel, capacity int) *Ring {
	return &Ring{channel: channel, events: make([]Event, capacity)}
}

// Record keeps e if it is the ring's channel's, evicting the oldest
// event once full.
func (r *Ring) Record(e Event) {
	if e.Channel != r.channel {
		return
	}
	r.events[r.next] = e
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.filled {
		return len(r.events)
	}
	return r.next
}

// Events returns the retained events in chronological order.
func (r *Ring) Events() []Event {
	var out []Event
	if r.filled {
		out = append(out, r.events[r.next:]...)
	}
	return append(out, r.events[:r.next]...)
}

// Dump renders all retained events, one per line.
func (r *Ring) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
