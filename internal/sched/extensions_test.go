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

func TestSMSBatchQuantumAndRotation(t *testing.T) {
	p := NewSMSBatch(3)
	v := fakeView{mode: ModeMEM, memQ: 10, pimQ: 10}
	for i := 0; i < 3; i++ {
		if p.DesiredMode(v) != ModeMEM {
			t.Fatalf("issue %d: batch ended early", i)
		}
		p.OnIssue(v, IssueInfo{Mode: ModeMEM})
	}
	if p.DesiredMode(v) != ModePIM {
		t.Error("batch complete: must rotate")
	}
	p.OnSwitch(v, ModePIM)
	vp := fakeView{mode: ModePIM, memQ: 10, pimQ: 10}
	if p.DesiredMode(vp) != ModePIM {
		t.Error("new batch did not reset the quantum")
	}
	// Empty current queue ends the batch immediately.
	if p.DesiredMode(fakeView{mode: ModePIM, memQ: 4}) != ModeMEM {
		t.Error("SMS idled on an empty batch source")
	}
	// Other side empty: batch extends.
	p2 := NewSMSBatch(1)
	p2.OnIssue(v, IssueInfo{Mode: ModeMEM})
	if p2.DesiredMode(fakeView{mode: ModeMEM, memQ: 5}) != ModeMEM {
		t.Error("SMS rotated to an empty queue")
	}
}

func TestExtensionPolicyNames(t *testing.T) {
	if NewITS().Name() != "its" || NewWEIS().Name() != "weis" || NewSMSBatch(4).Name() != "sms-batch" {
		t.Error("extension policy names changed")
	}
}
