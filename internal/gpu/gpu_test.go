package gpu

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/request"
)

// scriptGen is a deterministic generator for kernel tests. smIDs maps
// slots to the SM IDs stamped on requests, as the workload generators do.
type scriptGen struct {
	slots   int
	perSlot int
	smIDs   []int
	emitted []int
	id      uint64
}

func (g *scriptGen) Slots() int { return g.slots }
func (g *scriptGen) Total() int { return g.slots * g.perSlot }
func (g *scriptGen) Reset(int64) {
	g.emitted = make([]int, g.slots)
}
func (g *scriptGen) smOf(slot int) int {
	if g.smIDs != nil {
		return g.smIDs[slot]
	}
	return slot
}
func (g *scriptGen) Next(slot int) *request.Request {
	if g.emitted == nil {
		g.emitted = make([]int, g.slots)
	}
	if g.emitted[slot] >= g.perSlot {
		return nil
	}
	g.emitted[slot]++
	g.id++
	return &request.Request{ID: g.id, Kind: request.MemRead, SM: g.smOf(slot), App: 0}
}

func alwaysAccept(reqs *[]*request.Request) InjectFunc {
	return func(sm int, r *request.Request) bool {
		*reqs = append(*reqs, r)
		return true
	}
}

func TestKernelIssuesAtInterval(t *testing.T) {
	gen := &scriptGen{slots: 1, perSlot: 10}
	k := NewKernel(0, "test", gen, []int{0}, IssueParams{Interval: 5, PerSlot: 1, MaxOutstanding: 100}, 1)
	k.Start(0)
	var got []*request.Request
	inj := alwaysAccept(&got)
	for now := uint64(0); now < 21; now++ {
		k.Tick(now, inj)
	}
	// Issues at cycles 0,5,10,15,20 = 5 requests.
	if len(got) != 5 {
		t.Errorf("issued %d in 21 cycles at interval 5, want 5", len(got))
	}
}

func TestKernelRespectsOutstandingWindow(t *testing.T) {
	gen := &scriptGen{slots: 1, perSlot: 10}
	k := NewKernel(0, "test", gen, []int{0}, IssueParams{Interval: 1, PerSlot: 1, MaxOutstanding: 3}, 1)
	k.Start(0)
	var got []*request.Request
	inj := alwaysAccept(&got)
	for now := uint64(0); now < 20; now++ {
		k.Tick(now, inj)
	}
	if len(got) != 3 {
		t.Fatalf("issued %d with window 3 and no completions, want 3", len(got))
	}
	// Completing one opens one slot.
	k.OnComplete(got[0], 20)
	k.Tick(20, inj)
	if len(got) != 4 {
		t.Errorf("issued %d after one completion, want 4", len(got))
	}
}

func TestKernelRetriesOnBackpressure(t *testing.T) {
	gen := &scriptGen{slots: 1, perSlot: 2}
	k := NewKernel(0, "test", gen, []int{0}, IssueParams{Interval: 1, PerSlot: 1, MaxOutstanding: 10}, 1)
	k.Start(0)
	refuse := true
	var got []*request.Request
	inj := func(sm int, r *request.Request) bool {
		if refuse {
			return false
		}
		got = append(got, r)
		return true
	}
	for now := uint64(0); now < 5; now++ {
		k.Tick(now, inj)
	}
	if len(got) != 0 {
		t.Fatal("requests issued despite refusal")
	}
	if k.StallCycles == 0 {
		t.Error("backpressure stalls not counted")
	}
	refuse = false
	for now := uint64(5); now < 10; now++ {
		k.Tick(now, inj)
	}
	if len(got) != 2 {
		t.Errorf("issued %d after backpressure lifted, want 2", len(got))
	}
	if k.Issued() != 2 {
		t.Errorf("Issued() = %d", k.Issued())
	}
}

func TestKernelCompletionAndFirstFinish(t *testing.T) {
	gen := &scriptGen{slots: 2, perSlot: 2, smIDs: []int{3, 7}}
	k := NewKernel(0, "test", gen, []int{3, 7}, IssueParams{Interval: 1, PerSlot: 2, MaxOutstanding: 10}, 1)
	k.Start(0)
	var got []*request.Request
	inj := alwaysAccept(&got)
	for now := uint64(0); now < 4 && len(got) < 4; now++ {
		k.Tick(now, inj)
	}
	if len(got) != 4 {
		t.Fatalf("issued %d of 4", len(got))
	}
	for i, r := range got {
		finished := k.OnComplete(r, uint64(100+i))
		if (i == 3) != finished {
			t.Errorf("completion %d: finished=%v", i, finished)
		}
	}
	if !k.Finished() || k.FirstFinish() != 103 {
		t.Errorf("Finished=%v FirstFinish=%d", k.Finished(), k.FirstFinish())
	}
	if !k.RunDone() {
		t.Error("RunDone false after full completion")
	}
}

func TestKernelRestartPreservesFirstFinish(t *testing.T) {
	gen := &scriptGen{slots: 1, perSlot: 1}
	k := NewKernel(0, "test", gen, []int{0}, IssueParams{Interval: 1, PerSlot: 1, MaxOutstanding: 10}, 1)
	k.Start(0)
	var got []*request.Request
	inj := alwaysAccept(&got)
	k.Tick(0, inj)
	k.OnComplete(got[0], 50)
	if k.FirstFinish() != 50 {
		t.Fatal("first finish not recorded")
	}
	k.Restart(60)
	if k.Runs() != 2 || k.Issued() != 0 {
		t.Errorf("restart state: runs=%d issued=%d", k.Runs(), k.Issued())
	}
	got = got[:0]
	k.Tick(60, inj)
	if len(got) != 1 {
		t.Fatal("restarted kernel issued nothing")
	}
	k.OnComplete(got[0], 120)
	if k.FirstFinish() != 50 {
		t.Error("restart overwrote the first finish time")
	}
}

func TestKernelForeignCompletionPanics(t *testing.T) {
	gen := &scriptGen{slots: 1, perSlot: 1}
	k := NewKernel(0, "test", gen, []int{0}, IssueParams{Interval: 1, PerSlot: 1, MaxOutstanding: 1}, 1)
	k.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("foreign-SM completion accepted")
		}
	}()
	k.OnComplete(&request.Request{SM: 99}, 0)
}

// TestKernelDoubleCompletion: completing a request twice means someone
// used it after its release. Release builds clamp the SM's window at
// zero; simdebug builds stop at the offending completion.
func TestKernelDoubleCompletion(t *testing.T) {
	gen := &scriptGen{slots: 1, perSlot: 2, smIDs: []int{3}}
	k := NewKernel(0, "test", gen, []int{3}, IssueParams{Interval: 1, PerSlot: 1, MaxOutstanding: 4}, 1)
	k.Start(0)
	var got []*request.Request
	k.Tick(0, alwaysAccept(&got))
	k.OnComplete(got[0], 1)
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		k.OnComplete(got[0], 2)
		return false
	}()
	if panicked != invariant.Enabled {
		t.Errorf("double completion panicked=%v, want %v", panicked, invariant.Enabled)
	}
	if k.Outstanding() != 0 {
		t.Errorf("outstanding = %d after a double completion, want 0", k.Outstanding())
	}
}

func TestKernelGeneratorSlotMismatchPanics(t *testing.T) {
	gen := &scriptGen{slots: 2, perSlot: 1}
	defer func() {
		if recover() == nil {
			t.Error("slot/SM mismatch accepted")
		}
	}()
	NewKernel(0, "test", gen, []int{0}, IssueParams{}, 1)
}
