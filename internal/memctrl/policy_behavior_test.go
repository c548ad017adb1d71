package memctrl

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
)

// These tests run each scheduling policy on one controller with a canned
// mixed MEM/PIM backlog and assert the policy's service-order signature —
// the end-to-end behavior the policy unit tests cannot see.

// mixedBacklog enqueues 6 MEM reads (two rows on bank 0, one on bank 1)
// and two PIM blocks (rows 9 and 10, 4 ops each), PIM first so the PIM
// requests are older.
func mixedBacklog(c *Controller) (mems, pims []*request.Request) {
	for blk, row := range []uint32{9, 10} {
		for op := 0; op < 4; op++ {
			r := pimReq(0, row, blk, op%8, request.PIMLoad)
			c.Enqueue(r)
			pims = append(pims, r)
		}
	}
	for i := 0; i < 3; i++ {
		r := memReq(0, 0, 5, uint32(i), false)
		c.Enqueue(r)
		mems = append(mems, r)
	}
	for i := 0; i < 2; i++ {
		r := memReq(0, 0, 6, uint32(i), false)
		c.Enqueue(r)
		mems = append(mems, r)
	}
	r := memReq(0, 1, 7, 0, false)
	c.Enqueue(r)
	mems = append(mems, r)
	return mems, pims
}

func runPolicy(t *testing.T, policy sched.Policy) (order []*request.Request, st stats.Channel) {
	t.Helper()
	var done captured
	cfg := config.Paper()
	c := New(0, cfg, policy, &st, done.fn)
	mems, pims := mixedBacklog(c)
	for now := uint64(0); now < 3000 && len(done.reqs) < len(mems)+len(pims); now++ {
		c.Tick(now)
	}
	if len(done.reqs) != len(mems)+len(pims) {
		t.Fatalf("%s: completed %d of %d", policy.Name(), len(done.reqs), len(mems)+len(pims))
	}
	return done.reqs, st
}

func splitKinds(order []*request.Request) (firstMem, firstPIM, lastMem, lastPIM int) {
	firstMem, firstPIM = -1, -1
	for i, r := range order {
		if r.Kind == request.PIMOp {
			if firstPIM < 0 {
				firstPIM = i
			}
			lastPIM = i
		} else {
			if firstMem < 0 {
				firstMem = i
			}
			lastMem = i
		}
	}
	return firstMem, firstPIM, lastMem, lastPIM
}

func TestBehaviorFCFSStrictArrivalOrder(t *testing.T) {
	order, _ := runPolicy(t, sched.NewFCFS())
	for i := 1; i < len(order); i++ {
		if order[i].SeqNo < order[i-1].SeqNo {
			t.Fatalf("FCFS reordered: %v before %v", order[i-1], order[i])
		}
	}
}

func TestBehaviorMemFirstServesAllMEMFirst(t *testing.T) {
	order, _ := runPolicy(t, sched.NewMemFirst())
	_, firstPIM, lastMem, _ := splitKinds(order)
	if firstPIM < lastMem {
		t.Fatalf("MEM-First served a PIM op (pos %d) before the last MEM (pos %d)", firstPIM, lastMem)
	}
}

func TestBehaviorPIMFirstServesAllPIMFirst(t *testing.T) {
	order, _ := runPolicy(t, sched.NewPIMFirst())
	firstMem, _, _, lastPIM := splitKinds(order)
	if firstMem < lastPIM {
		t.Fatalf("PIM-First served a MEM request (pos %d) before the last PIM op (pos %d)", firstMem, lastPIM)
	}
}

func TestBehaviorFRFCFSServesOlderPIMAtConflictPoints(t *testing.T) {
	// PIM requests are older; FR-FCFS starts in MEM mode with no open
	// rows, so every bank conflicts and the controller must switch to
	// PIM immediately (conflict bits + older other-mode requests).
	order, st := runPolicy(t, sched.NewFRFCFS())
	if order[0].Kind != request.PIMOp {
		t.Fatalf("FR-FCFS first service %v, want the older PIM stream", order[0])
	}
	if st.Switches == 0 {
		t.Fatal("FR-FCFS never switched")
	}
}

func TestBehaviorF3FSFinishesCurrentModeFirst(t *testing.T) {
	// F3FS starts in MEM mode; with CAPs far above the backlog it must
	// drain every MEM request before touching the (older!) PIM queue —
	// current mode first.
	order, st := runPolicy(t, core.NewF3FS(256, 256))
	_, firstPIM, lastMem, _ := splitKinds(order)
	if firstPIM < lastMem {
		t.Fatalf("F3FS left MEM mode early (PIM at %d, last MEM at %d)", firstPIM, lastMem)
	}
	if st.Switches != 1 {
		t.Errorf("F3FS switches = %d, want exactly 1 (MEM backlog, then PIM backlog)", st.Switches)
	}
}

func TestBehaviorF3FSCapBoundsBypasses(t *testing.T) {
	// With a MEM CAP of 2, F3FS may serve at most 2 MEM requests past
	// the older PIM queue before switching.
	order, _ := runPolicy(t, core.NewF3FS(2, 256))
	memsBeforePIM := 0
	for _, r := range order {
		if r.Kind == request.PIMOp {
			break
		}
		memsBeforePIM++
	}
	if memsBeforePIM > 2 {
		t.Fatalf("F3FS served %d MEM requests past its CAP of 2", memsBeforePIM)
	}
}

func TestBehaviorFRRRAlternatesService(t *testing.T) {
	// FR-RR must interleave: at least two transitions between kinds in
	// the completion order (MEM rows 5->6 conflict hands over, PIM
	// block boundary hands back).
	order, st := runPolicy(t, sched.NewFRRRFCFS())
	transitions := 0
	for i := 1; i < len(order); i++ {
		if (order[i].Kind == request.PIMOp) != (order[i-1].Kind == request.PIMOp) {
			transitions++
		}
	}
	if transitions < 2 {
		t.Fatalf("FR-RR transitions = %d, want interleaving (completions: %v)", transitions, order)
	}
	if st.Switches < 2 {
		t.Errorf("FR-RR switches = %d", st.Switches)
	}
}

func TestBehaviorGatherIssueBelowWatermark(t *testing.T) {
	// 8 queued PIM ops sit below the high watermark (56): G&I serves
	// MEM first and lets PIM trickle only when MEM is empty.
	order, _ := runPolicy(t, sched.NewGatherIssue(56, 32))
	_, firstPIM, lastMem, _ := splitKinds(order)
	if firstPIM < lastMem {
		t.Fatalf("G&I served PIM (pos %d) before MEM drained (pos %d) below the watermark", firstPIM, lastMem)
	}
}

func TestBehaviorGatherIssueHighWatermarkDrains(t *testing.T) {
	// Fill the PIM queue to the high watermark: G&I must switch to PIM
	// and drain to the low watermark before resuming MEM.
	var done captured
	var st stats.Channel
	cfg := config.Paper()
	c := New(0, cfg, sched.NewGatherIssue(56, 32), &st, done.fn)
	for i := 0; i < 56; i++ {
		c.Enqueue(pimReq(0, uint32(9+i/8), i/8, i%8, request.PIMLoad))
	}
	m := memReq(0, 0, 5, 0, false)
	c.Enqueue(m)
	for now := uint64(0); now < 500 && len(done.reqs) < 25; now++ {
		c.Tick(now)
	}
	// The first ~24 completions (draining 56 -> 32) must all be PIM.
	for i, r := range done.reqs {
		if i < 24 && r.Kind != request.PIMOp {
			t.Fatalf("G&I completion %d is %v during the gather drain", i, r)
		}
	}
}

func TestBehaviorBLISSBreaksPIMStreaks(t *testing.T) {
	// BLISS with threshold 4 must not let the older 8-op PIM backlog
	// run to completion before MEM gets service.
	order, _ := runPolicy(t, sched.NewBLISS(4, 100000))
	_, _, _, lastPIM := splitKinds(order)
	firstMem := -1
	for i, r := range order {
		if r.Kind != request.PIMOp {
			firstMem = i
			break
		}
	}
	if firstMem < 0 || firstMem > lastPIM {
		t.Fatalf("BLISS never interleaved MEM into the PIM stream (first MEM at %d, last PIM at %d)", firstMem, lastPIM)
	}
}
