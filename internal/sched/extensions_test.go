package sched

import "testing"

func TestITSPrefersSmallerBacklog(t *testing.T) {
	p := NewITS()
	if p.DesiredMode(fakeView{mode: ModePIM, memQ: 3, pimQ: 60}) != ModeMEM {
		t.Error("ITS must serve the less backlogged (higher-IPC) application")
	}
	if p.DesiredMode(fakeView{mode: ModeMEM, memQ: 60, pimQ: 3}) != ModePIM {
		t.Error("ITS must flip when the backlog inverts")
	}
	// Ties hold the current mode.
	if p.DesiredMode(fakeView{mode: ModePIM, memQ: 5, pimQ: 5}) != ModePIM {
		t.Error("ITS tie should hold mode")
	}
	// Single-sided work follows the work.
	if p.DesiredMode(fakeView{mode: ModeMEM, pimQ: 1}) != ModePIM {
		t.Error("ITS idled with PIM work queued")
	}
	if p.DesiredMode(fakeView{mode: ModePIM}) != ModePIM {
		t.Error("ITS changed mode with empty queues")
	}
	p.OnIssue(fakeView{}, IssueInfo{})
	p.OnSwitch(fakeView{}, ModeMEM)
}

func TestWEISReinforcesAttainedBandwidth(t *testing.T) {
	p := NewWEIS()
	v := fakeView{mode: ModeMEM, memQ: 5, pimQ: 5}
	// No history: hold mode.
	if p.DesiredMode(v) != ModeMEM {
		t.Error("WEIS with no history should hold mode")
	}
	// PIM attains service: WEIS locks on.
	for i := 0; i < 3; i++ {
		p.OnIssue(v, IssueInfo{Mode: ModePIM})
	}
	p.OnIssue(v, IssueInfo{Mode: ModeMEM})
	if p.DesiredMode(v) != ModePIM {
		t.Error("WEIS must prefer the higher-attained-bandwidth side")
	}
	// Empty winner queue: follow the work.
	if p.DesiredMode(fakeView{mode: ModePIM, memQ: 2}) != ModeMEM {
		t.Error("WEIS idled with only MEM work")
	}
	p.OnSwitch(v, ModeMEM)
}

func TestExtensionPolicyNames(t *testing.T) {
	if NewITS().Name() != "its" || NewWEIS().Name() != "weis" {
		t.Error("extension policy names changed")
	}
}
