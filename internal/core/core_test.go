package core

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/sched"
)

// fakeView mirrors the controller view for policy-level tests.
type fakeView struct {
	now        uint64
	mode       sched.Mode
	memQ, pimQ int
	oldest     sched.Mode
	hasOldest  bool
	memRowHit  bool
	pimRowOpen bool
}

func (v fakeView) Now() uint64                       { return v.now }
func (v fakeView) Mode() sched.Mode                  { return v.mode }
func (v fakeView) MemQLen() int                      { return v.memQ }
func (v fakeView) PIMQLen() int                      { return v.pimQ }
func (v fakeView) OldestOverall() (sched.Mode, bool) { return v.oldest, v.hasOldest }
func (v fakeView) MemRowHitAvailable() bool          { return v.memRowHit }
func (v fakeView) PIMHeadRowOpen() bool              { return v.pimRowOpen }

func TestF3FSStaysInCurrentModeUnderCap(t *testing.T) {
	p := NewF3FS(4, 4)
	v := fakeView{mode: sched.ModeMEM, memQ: 5, pimQ: 5, oldest: sched.ModePIM, hasOldest: true}
	// Current-mode-first: even with an older PIM request waiting, MEM
	// keeps the channel while under the cap.
	for i := 0; i < 4; i++ {
		if got := p.DesiredMode(v); got != sched.ModeMEM {
			t.Fatalf("issue %d: desired %v, want MEM (current mode first)", i, got)
		}
		p.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	}
	// Cap reached and oldest is PIM: switch.
	if got := p.DesiredMode(v); got != sched.ModePIM {
		t.Errorf("capped desired = %v, want PIM", got)
	}
}

func TestF3FSCapIgnoredWhenOldestIsCurrentMode(t *testing.T) {
	// Sec. VII-B (kmeans): reaching the CAP does not switch while the
	// oldest request still belongs to the current mode.
	p := NewF3FS(2, 2)
	v := fakeView{mode: sched.ModeMEM, memQ: 5, pimQ: 5, oldest: sched.ModeMEM, hasOldest: true}
	p.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	p.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	if got := p.DesiredMode(v); got != sched.ModeMEM {
		t.Errorf("desired = %v, want MEM (oldest is MEM)", got)
	}
	// As soon as the oldest becomes PIM, the exhausted cap triggers.
	v.oldest = sched.ModePIM
	if got := p.DesiredMode(v); got != sched.ModePIM {
		t.Errorf("desired = %v, want PIM once oldest flips", got)
	}
}

func TestF3FSSwitchResetsBypassCount(t *testing.T) {
	p := NewF3FS(2, 2)
	v := fakeView{mode: sched.ModeMEM, memQ: 5, pimQ: 5, oldest: sched.ModePIM, hasOldest: true}
	p.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	p.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	if p.Bypasses() != 2 {
		t.Fatalf("bypasses = %d, want 2", p.Bypasses())
	}
	p.OnSwitch(v, sched.ModePIM)
	if p.Bypasses() != 0 {
		t.Errorf("bypasses = %d after switch, want 0", p.Bypasses())
	}
}

func TestF3FSAsymmetricCaps(t *testing.T) {
	p := NewF3FS(1, 3) // MEM cap 1, PIM cap 3
	// MEM mode: a single bypass exhausts the MEM cap.
	vm := fakeView{mode: sched.ModeMEM, memQ: 5, pimQ: 5, oldest: sched.ModePIM, hasOldest: true}
	p.OnIssue(vm, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	if got := p.DesiredMode(vm); got != sched.ModePIM {
		t.Errorf("MEM cap 1: desired %v, want PIM", got)
	}
	p.OnSwitch(vm, sched.ModePIM)
	// PIM mode: three bypasses allowed.
	vp := fakeView{mode: sched.ModePIM, memQ: 5, pimQ: 5, oldest: sched.ModeMEM, hasOldest: true}
	for i := 0; i < 3; i++ {
		if got := p.DesiredMode(vp); got != sched.ModePIM {
			t.Fatalf("issue %d: desired %v, want PIM", i, got)
		}
		p.OnIssue(vp, sched.IssueInfo{Mode: sched.ModePIM, BypassedOlderOtherMode: true})
	}
	if got := p.DesiredMode(vp); got != sched.ModeMEM {
		t.Errorf("PIM cap 3 exhausted: desired %v, want MEM", got)
	}
}

func TestF3FSFollowsWorkWhenCurrentQueueEmpty(t *testing.T) {
	p := NewF3FS(256, 256)
	if got := p.DesiredMode(fakeView{mode: sched.ModeMEM, pimQ: 4}); got != sched.ModePIM {
		t.Errorf("desired %v, want PIM (MEM queue empty)", got)
	}
	if got := p.DesiredMode(fakeView{mode: sched.ModePIM, memQ: 4}); got != sched.ModeMEM {
		t.Errorf("desired %v, want MEM (PIM queue empty)", got)
	}
	if got := p.DesiredMode(fakeView{mode: sched.ModePIM}); got != sched.ModePIM {
		t.Errorf("desired %v, want PIM (both empty: hold)", got)
	}
}

// TestF3FSUsesFRFCFSWithinMemMode: F3FS has no MEM gate, so the controller
// runs its default FR-FCFS engine — row hits bypass, and conflicts in the
// current mode are serviced in place (current mode first).
func TestF3FSUsesFRFCFSWithinMemMode(t *testing.T) {
	if _, ok := sched.Policy(NewF3FS(256, 256)).(sched.MemGate); ok {
		t.Error("F3FS must run the default FR-FCFS within MEM mode")
	}
}

// TestPolicyGatesMatchPaper: every evaluated policy but FCFS runs plain
// FR-FCFS within MEM mode (Sec. III-D), so only the policies that change
// that engine — FCFS, FR-FCFS's conflict-bit stall, and the two CAPs on it
// — implement sched.MemGate.
func TestPolicyGatesMatchPaper(t *testing.T) {
	want := map[string]bool{"fcfs": true, "fr-fcfs": true, "fr-fcfs-cap": true, "mode-cap-fr-fcfs": true}
	cfg := config.Paper().Sched
	for _, name := range append(append([]string(nil), PolicyNames...), ExtensionPolicyNames...) {
		_, gated := NewPolicy(name, cfg).(sched.MemGate)
		if gated != want[name] {
			t.Errorf("%s implements sched.MemGate = %v, want %v", name, gated, want[name])
		}
	}
}

func TestPolicyRegistryCoversAllNine(t *testing.T) {
	cfg := config.Paper().Sched
	if len(PolicyNames) != 9 {
		t.Fatalf("policy registry has %d names, want 9", len(PolicyNames))
	}
	seen := map[string]bool{}
	for _, name := range PolicyNames {
		p := NewPolicy(name, cfg)
		if p == nil {
			t.Errorf("NewPolicy(%q) = nil", name)
			continue
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
		if seen[name] {
			t.Errorf("duplicate policy %q", name)
		}
		seen[name] = true
	}
	if NewPolicy("no-such-policy", cfg) != nil {
		t.Error("unknown policy did not return nil")
	}
	if Factory("no-such-policy", cfg) != nil {
		t.Error("unknown factory did not return nil")
	}
}

func TestFactoryReturnsIndependentInstances(t *testing.T) {
	cfg := config.Paper().Sched
	f := Factory("f3fs", cfg)
	a := f().(*F3FS)
	b := f().(*F3FS)
	if a == b {
		t.Fatal("factory returned a shared instance")
	}
	v := fakeView{mode: sched.ModeMEM, memQ: 1, pimQ: 1, oldest: sched.ModePIM, hasOldest: true}
	a.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	if b.Bypasses() != 0 {
		t.Error("per-channel policy instances share state")
	}
}

func TestExtensionPolicies(t *testing.T) {
	cfg := config.Paper().Sched
	for _, name := range ExtensionPolicyNames {
		p := NewPolicy(name, cfg)
		if p == nil {
			t.Errorf("extension policy %q not constructible", name)
			continue
		}
		if p.Name() != name {
			t.Errorf("extension policy name %q != %q", p.Name(), name)
		}
	}
}

// TestReadsCapsMatchesConstruction: a policy is built differently when a
// cap changes exactly when ReadsCaps says it reads that cap.
func TestReadsCapsMatchesConstruction(t *testing.T) {
	base := config.Scaled().Sched
	for _, name := range append(append([]string{}, PolicyNames...), ExtensionPolicyNames...) {
		mem, pim := base, base
		mem.F3FSMemCap++
		pim.F3FSPIMCap++
		readsMem, readsPIM := ReadsCaps(name)
		if got := !reflect.DeepEqual(NewPolicy(name, base), NewPolicy(name, mem)); got != readsMem {
			t.Errorf("%s: MEM cap changes the policy = %v, ReadsCaps says %v", name, got, readsMem)
		}
		if got := !reflect.DeepEqual(NewPolicy(name, base), NewPolicy(name, pim)); got != readsPIM {
			t.Errorf("%s: PIM cap changes the policy = %v, ReadsCaps says %v", name, got, readsPIM)
		}
	}
}

func TestCapsForPriorities(t *testing.T) {
	// Equal priorities split the budget evenly.
	m, p := CapsForPriorities(1, 1, 512, 8)
	if m != 256 || p != 256 {
		t.Errorf("equal priorities: %d/%d, want 256/256", m, p)
	}
	// 3:1 favors MEM proportionally, in RF multiples.
	m, p = CapsForPriorities(3, 1, 512, 8)
	if m <= p {
		t.Errorf("3:1 priorities gave %d/%d", m, p)
	}
	if m%8 != 0 || p%8 != 0 {
		t.Errorf("caps %d/%d not RF multiples", m, p)
	}
	// Degenerate inputs clamp instead of panicking or returning zero.
	m, p = CapsForPriorities(0, -5, 0, 0)
	if m < 1 || p < 1 {
		t.Errorf("degenerate inputs gave %d/%d", m, p)
	}
	// Extreme ratios still leave the loser at least one RF group.
	m, p = CapsForPriorities(1000, 1, 512, 8)
	if p < 8 {
		t.Errorf("starved the low-priority side: pim cap %d", p)
	}
}

func TestModeCapFRFCFSBehavior(t *testing.T) {
	p := NewModeCapFRFCFS(2)
	// Under the cap it behaves like FR-FCFS: stay on row hits.
	v := fakeView{mode: sched.ModeMEM, memQ: 3, pimQ: 3, oldest: sched.ModePIM, hasOldest: true, memRowHit: true}
	if p.DesiredMode(v) != sched.ModeMEM {
		t.Error("left MEM while hits remained (under cap)")
	}
	// Exhaust the mode-bypass cap: forced switch even with hits left.
	p.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	p.OnIssue(v, sched.IssueInfo{Mode: sched.ModeMEM, BypassedOlderOtherMode: true})
	if p.DesiredMode(v) != sched.ModePIM {
		t.Error("mode-bypass cap did not force a switch")
	}
	p.OnSwitch(v, sched.ModePIM)
	// Row hits are never capped (that is FR-FCFS-Cap's mechanism).
	if !p.MemRowHitsAllowed(v) {
		t.Error("row hits capped by the mode-cap stage")
	}
}

func TestProposedSetsVC2AndF3FS(t *testing.T) {
	cfg := config.Paper()
	name := Proposed(&cfg)
	if name != "f3fs" {
		t.Errorf("Proposed policy = %q, want f3fs", name)
	}
	if cfg.NoC.Mode != config.VC2 {
		t.Error("Proposed did not select the VC2 interconnect")
	}
}
