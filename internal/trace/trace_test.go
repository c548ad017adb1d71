package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/request"
	"repro/internal/sched"
)

func TestChronologicalOrder(t *testing.T) {
	r := NewRing(0, 10)
	for i := uint64(1); i <= 5; i++ {
		r.Record(Event{Cycle: i, Kind: EvColumn})
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, e := range evs {
		if e.Cycle != uint64(i+1) {
			t.Fatalf("order broken at %d: %v", i, e.Cycle)
		}
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(0, 3)
	for i := uint64(1); i <= 7; i++ {
		r.Record(Event{Cycle: i})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Cycle != 5 || evs[2].Cycle != 7 {
		t.Errorf("kept %v..%v, want 5..7", evs[0].Cycle, evs[2].Cycle)
	}
}

func TestRingKeepsItsChannel(t *testing.T) {
	r := NewRing(2, 10)
	r.Record(Event{Channel: 1, Kind: EvColumn})
	r.Record(Event{Channel: 2, Kind: EvSwitchDone})
	r.Record(Event{Channel: 3, Kind: EvEnqueue})
	if evs := r.Events(); len(evs) != 1 || evs[0].Channel != 2 {
		t.Errorf("ring for channel 2 retained %v", evs)
	}
}

func TestEventRendering(t *testing.T) {
	for _, c := range []struct {
		e    Event
		want []string
	}{
		{Event{Cycle: 42, Kind: EvColumn, Channel: 3, Bank: 7, Row: 99, ReqID: 5, Req: request.MemWrite},
			[]string{"42", "ch3", "col", "b7", "row99", "req#5", "WRITE"}},
		{Event{Kind: EvPIMOp, Bank: -1, ReqID: 6, Req: request.PIMOp, Op: request.PIMStore}, []string{"b--", "pim.store"}},
		{Event{Kind: EvSwitchStart, Bank: -1, Mode: sched.ModePIM}, []string{"MEM->PIM"}},
		{Event{Kind: EvSwitchDone, Bank: -1, Mode: sched.ModeMEM}, []string{"PIM->MEM"}},
	} {
		s := c.e.String()
		for _, want := range c.want {
			if !strings.Contains(s, want) {
				t.Errorf("rendering %q missing %q", s, want)
			}
		}
	}
	// Only enqueue, col, pim-op and the switches carry a note.
	if s := (Event{Kind: EvComplete, Bank: 1, ReqID: 5, Req: request.MemWrite}).String(); strings.Contains(s, "WRITE") {
		t.Errorf("complete rendered a note: %q", s)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := EvEnqueue; k < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestRingNeverExceedsCapacity is the recorder's core property.
func TestRingNeverExceedsCapacity(t *testing.T) {
	f := func(capacity uint8, n uint16) bool {
		c := int(capacity%32) + 1
		r := NewRing(0, c)
		for i := 0; i < int(n%2048); i++ {
			r.Record(Event{Cycle: uint64(i)})
		}
		if r.Len() > c {
			return false
		}
		evs := r.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Cycle != evs[i-1].Cycle+1 {
				return false // order or continuity broken
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
