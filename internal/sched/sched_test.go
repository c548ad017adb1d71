package sched

import "testing"

// fakeView is a scriptable controller view for policy unit tests.
type fakeView struct {
	now        uint64
	mode       Mode
	memQ, pimQ int
	oldest     Mode
	hasOldest  bool
	memRowHit  bool
	pimRowOpen bool
}

func (v fakeView) Now() uint64  { return v.now }
func (v fakeView) Mode() Mode   { return v.mode }
func (v fakeView) MemQLen() int { return v.memQ }
func (v fakeView) PIMQLen() int { return v.pimQ }
func (v fakeView) OldestOverall() (Mode, bool) {
	return v.oldest, v.hasOldest
}
func (v fakeView) MemRowHitAvailable() bool { return v.memRowHit }
func (v fakeView) PIMHeadRowOpen() bool     { return v.pimRowOpen }

func TestModeOtherAndString(t *testing.T) {
	if ModeMEM.Other() != ModePIM || ModePIM.Other() != ModeMEM {
		t.Error("Other() wrong")
	}
	if ModeMEM.String() != "MEM" || ModePIM.String() != "PIM" {
		t.Error("String() wrong")
	}
}

func TestFCFSFollowsOldest(t *testing.T) {
	p := NewFCFS()
	v := fakeView{mode: ModeMEM, memQ: 3, pimQ: 3, oldest: ModePIM, hasOldest: true}
	if got := p.DesiredMode(v); got != ModePIM {
		t.Errorf("FCFS desired = %v, want PIM (oldest)", got)
	}
	v.oldest = ModeMEM
	if got := p.DesiredMode(v); got != ModeMEM {
		t.Error("FCFS should follow MEM oldest")
	}
	// Empty queues: stay put.
	v = fakeView{mode: ModePIM}
	if got := p.DesiredMode(v); got != ModePIM {
		t.Error("FCFS should hold mode with empty queues")
	}
	if p.MemRowHitsAllowed(v) {
		t.Error("FCFS must not reorder via row hits")
	}
}

func TestMemFirstAndPIMFirst(t *testing.T) {
	mf, pf := NewMemFirst(), NewPIMFirst()
	both := fakeView{mode: ModePIM, memQ: 1, pimQ: 9}
	if mf.DesiredMode(both) != ModeMEM {
		t.Error("MEM-First must pick MEM when MEM queued")
	}
	if pf.DesiredMode(both) != ModePIM {
		t.Error("PIM-First must pick PIM when PIM queued")
	}
	onlyPIM := fakeView{mode: ModeMEM, pimQ: 2}
	if mf.DesiredMode(onlyPIM) != ModePIM {
		t.Error("MEM-First must fall through to PIM when MEM empty")
	}
	onlyMEM := fakeView{mode: ModePIM, memQ: 2}
	if pf.DesiredMode(onlyMEM) != ModeMEM {
		t.Error("PIM-First must fall through to MEM when PIM empty")
	}
}

func TestFRFCFSStaysOnRowHits(t *testing.T) {
	p := NewFRFCFS()
	// Oldest is PIM but MEM still has row hits: no switch yet.
	v := fakeView{mode: ModeMEM, memQ: 4, pimQ: 4, oldest: ModePIM, hasOldest: true, memRowHit: true}
	if p.DesiredMode(v) != ModeMEM {
		t.Error("FR-FCFS switched while row hits remained")
	}
	// All banks conflicted: switch.
	v.memRowHit = false
	if p.DesiredMode(v) != ModePIM {
		t.Error("FR-FCFS did not switch on all-bank conflict with PIM oldest")
	}
	// Oldest is MEM: conflicts are serviced, no switch.
	v.oldest = ModeMEM
	if p.DesiredMode(v) != ModeMEM {
		t.Error("FR-FCFS switched although oldest is MEM")
	}
	if !p.MemConflictServiceAllowed(v) {
		t.Error("conflict service must be allowed when oldest is current mode")
	}
	v.oldest = ModePIM
	if p.MemConflictServiceAllowed(v) {
		t.Error("conflicted banks must stall when oldest is other mode")
	}
}

func TestFRFCFSPIMSideSwitchesAtBlockBoundary(t *testing.T) {
	p := NewFRFCFS()
	v := fakeView{mode: ModePIM, memQ: 2, pimQ: 2, oldest: ModeMEM, hasOldest: true, pimRowOpen: true}
	if p.DesiredMode(v) != ModePIM {
		t.Error("FR-FCFS left PIM mid-block (lockstep row open)")
	}
	v.pimRowOpen = false
	if p.DesiredMode(v) != ModeMEM {
		t.Error("FR-FCFS did not switch at block boundary with MEM oldest")
	}
}

func TestFRFCFSEmptyCurrentQueueSwitches(t *testing.T) {
	p := NewFRFCFS()
	v := fakeView{mode: ModeMEM, memQ: 0, pimQ: 5, oldest: ModePIM, hasOldest: true}
	if p.DesiredMode(v) != ModePIM {
		t.Error("FR-FCFS idled a channel with PIM work queued")
	}
}

func TestFRFCFSCapForcesOldestFirst(t *testing.T) {
	p := NewFRFCFSCap(3)
	v := fakeView{mode: ModeMEM, memQ: 4, pimQ: 4, oldest: ModePIM, hasOldest: true, memRowHit: true}
	for i := 0; i < 3; i++ {
		if !p.MemRowHitsAllowed(v) {
			t.Fatalf("cap hit early at %d", i)
		}
		p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: true, BypassedOlderOtherMode: true})
	}
	if p.MemRowHitsAllowed(v) {
		t.Error("row hits still allowed past the cap")
	}
	// Capped with PIM oldest: the mode must follow the oldest request.
	if p.DesiredMode(v) != ModePIM {
		t.Error("capped FR-FCFS-Cap did not revert to oldest-first (PIM)")
	}
	// A non-bypassing issue resets the window.
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: false})
	if !p.MemRowHitsAllowed(v) {
		t.Error("cap window did not reset on oldest-first service")
	}
	// Switch resets too.
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: true, BypassedOlderSameMode: true})
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: true, BypassedOlderSameMode: true})
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: true, BypassedOlderSameMode: true})
	if p.MemRowHitsAllowed(v) {
		t.Error("cap should be exhausted again")
	}
	p.OnSwitch(v, ModePIM)
	if !p.MemRowHitsAllowed(v) {
		t.Error("cap window did not reset on mode switch")
	}
}

func TestBLISSBlacklistsStreaks(t *testing.T) {
	p := NewBLISS(4, 10000)
	v := fakeView{now: 1, mode: ModePIM, memQ: 3, pimQ: 3, oldest: ModePIM, hasOldest: true, pimRowOpen: true}
	// Five consecutive PIM issues blacklist the PIM application.
	for i := 0; i < 5; i++ {
		p.OnIssue(v, IssueInfo{Mode: ModePIM})
	}
	if got := p.DesiredMode(v); got != ModeMEM {
		t.Errorf("BLISS desired = %v, want MEM (PIM blacklisted)", got)
	}
	// The blacklist clears after the interval.
	v.now = 20001
	if got := p.DesiredMode(v); got != ModePIM {
		t.Errorf("BLISS desired = %v after clear, want PIM (FR-FCFS tie fallback, row open)", got)
	}
}

func TestBLISSTieFallsBackToFRFCFS(t *testing.T) {
	p := NewBLISS(4, 10000)
	// Neither blacklisted, both queued: FR-FCFS behavior (stay on hits).
	v := fakeView{now: 1, mode: ModeMEM, memQ: 2, pimQ: 2, oldest: ModePIM, hasOldest: true, memRowHit: true}
	if p.DesiredMode(v) != ModeMEM {
		t.Error("BLISS tie should behave like FR-FCFS (stay on row hits)")
	}
	v.memRowHit = false
	if p.DesiredMode(v) != ModePIM {
		t.Error("BLISS tie should switch like FR-FCFS on conflicts")
	}
}

func TestBLISSSingleQueue(t *testing.T) {
	p := NewBLISS(4, 10000)
	if p.DesiredMode(fakeView{now: 1, mode: ModePIM, memQ: 1}) != ModeMEM {
		t.Error("BLISS must serve the only pending mode")
	}
	if p.DesiredMode(fakeView{now: 1, mode: ModeMEM, pimQ: 1}) != ModePIM {
		t.Error("BLISS must serve the only pending mode")
	}
}

func TestFRRRFCFSAlternatesOnConflict(t *testing.T) {
	p := NewFRRRFCFS()
	v := fakeView{mode: ModeMEM, memQ: 3, pimQ: 3, memRowHit: true}
	if p.DesiredMode(v) != ModeMEM {
		t.Error("FR-RR left MEM while row hits remained")
	}
	v.memRowHit = false
	if p.DesiredMode(v) != ModePIM {
		t.Error("FR-RR did not hand off on conflict")
	}
	// Other queue empty: conflicts serviced in place.
	v.pimQ = 0
	if p.DesiredMode(v) != ModeMEM {
		t.Error("FR-RR switched to an empty queue")
	}
	// PIM side: block boundary hands back to MEM.
	v = fakeView{mode: ModePIM, memQ: 1, pimQ: 3, pimRowOpen: true}
	if p.DesiredMode(v) != ModePIM {
		t.Error("FR-RR left PIM mid-block")
	}
	v.pimRowOpen = false
	if p.DesiredMode(v) != ModeMEM {
		t.Error("FR-RR did not hand off at block boundary")
	}
}

func TestFRRRFCFSServesAtLeastOneRequestPerTurn(t *testing.T) {
	p := NewFRRRFCFS()
	// Simulate entering MEM mode right after a PIM phase displaced all
	// open rows: no MEM row hit exists, yet the turn must not rotate
	// back before the oldest MEM request is serviced.
	p.OnSwitch(fakeView{}, ModeMEM)
	v := fakeView{mode: ModeMEM, memQ: 3, pimQ: 3, memRowHit: false}
	if p.DesiredMode(v) != ModeMEM {
		t.Fatal("FR-RR rotated away before serving the turn's first request (MEM starvation)")
	}
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: false})
	// Served once and still no hits: now the conflict rotates.
	if p.DesiredMode(v) != ModePIM {
		t.Error("FR-RR did not rotate after the turn's service")
	}
}

func TestFRFCFSCapDistinctFromFRFCFS(t *testing.T) {
	// The cap window must survive a bypassing miss: only servicing the
	// oldest request clears it.
	p := NewFRFCFSCap(2)
	v := fakeView{mode: ModeMEM, memQ: 4, pimQ: 4, oldest: ModePIM, hasOldest: true, memRowHit: true}
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: true, BypassedOlderOtherMode: true})
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: false, BypassedOlderOtherMode: true}) // bypassing miss
	p.OnIssue(v, IssueInfo{Mode: ModeMEM, RowHit: true, BypassedOlderOtherMode: true})
	if p.MemRowHitsAllowed(v) {
		t.Error("bypassing miss cleared the cap window")
	}
}

func TestGatherIssueWatermarks(t *testing.T) {
	p := NewGatherIssue(56, 32)
	// Below high watermark with MEM pending: MEM mode.
	v := fakeView{mode: ModeMEM, memQ: 5, pimQ: 40}
	if p.DesiredMode(v) != ModeMEM {
		t.Error("G&I entered PIM below the high watermark")
	}
	// Crossing high: switch and drain.
	v.pimQ = 56
	if p.DesiredMode(v) != ModePIM {
		t.Error("G&I did not gather-and-issue at the high watermark")
	}
	// Still above low: keep draining even though MEM waits.
	v.pimQ = 33
	if p.DesiredMode(v) != ModePIM {
		t.Error("G&I stopped draining above the low watermark")
	}
	// At/below low: back to MEM.
	v.pimQ = 32
	if p.DesiredMode(v) != ModeMEM {
		t.Error("G&I kept draining at the low watermark")
	}
	// Idle MEM queue: PIM trickles out.
	v = fakeView{mode: ModeMEM, memQ: 0, pimQ: 3}
	if p.DesiredMode(v) != ModePIM {
		t.Error("G&I idled the channel with only PIM work")
	}
}

func TestPolicyNamesAreStable(t *testing.T) {
	names := []struct {
		want string
		p    Policy
	}{
		{"fcfs", NewFCFS()},
		{"mem-first", NewMemFirst()},
		{"pim-first", NewPIMFirst()},
		{"fr-fcfs", NewFRFCFS()},
		{"fr-fcfs-cap", NewFRFCFSCap(32)},
		{"bliss", NewBLISS(4, 4000)},
		{"fr-rr-fcfs", NewFRRRFCFS()},
		{"gather-issue", NewGatherIssue(56, 32)},
	}
	for _, c := range names {
		if c.p.Name() != c.want {
			t.Errorf("policy name %q, want %q", c.p.Name(), c.want)
		}
	}
}
