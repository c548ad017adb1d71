package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
)

var reqID uint64

func memReq(ch, bank int, row uint32, col uint32, write bool) *request.Request {
	reqID++
	kind := request.MemRead
	if write {
		kind = request.MemWrite
	}
	return &request.Request{ID: reqID, Kind: kind, Channel: ch, Bank: bank, Row: row, Col: col}
}

func pimReq(ch int, row uint32, block, entry int, op request.PIMOpKind) *request.Request {
	reqID++
	return &request.Request{
		ID: reqID, Kind: request.PIMOp, Channel: ch, Row: row,
		PIM: &request.PIMInfo{Op: op, RFEntry: entry, Block: block},
	}
}

type captured struct {
	reqs  []*request.Request
	times []uint64
}

func (c *captured) fn(r *request.Request, now uint64) {
	c.reqs = append(c.reqs, r)
	c.times = append(c.times, now)
}

func newCtl(policy sched.Policy, st *stats.Channel, done *captured) *Controller {
	cfg := config.Paper()
	var cb CompletionFunc
	if done != nil {
		cb = done.fn
	}
	return New(0, cfg, policy, st, cb)
}

func runCycles(c *Controller, from, to uint64) uint64 {
	for now := from; now < to; now++ {
		c.Tick(now)
	}
	return to
}

func TestEnqueueAssignsMonotonicAges(t *testing.T) {
	c := newCtl(sched.NewFRFCFS(), nil, nil)
	a := memReq(0, 0, 1, 0, false)
	b := pimReq(0, 2, 0, 0, request.PIMLoad)
	if !c.Enqueue(a) || !c.Enqueue(b) {
		t.Fatal("enqueue failed")
	}
	if a.SeqNo >= b.SeqNo {
		t.Errorf("ages not monotonic: %d then %d", a.SeqNo, b.SeqNo)
	}
}

// TestQueueCapacityEnforced fills the MEM queue spread over every bank and
// aimed at one bank: either way it takes exactly MemQSize requests, and
// the one bank's window holds them all without growing.
func TestQueueCapacityEnforced(t *testing.T) {
	cfg := config.Paper()
	for _, banks := range []int{16, 1} {
		c := newCtl(sched.NewFRFCFS(), nil, nil)
		for i := 0; i < cfg.Memory.MemQSize; i++ {
			if !c.Enqueue(memReq(0, i%banks, 1, 0, false)) {
				t.Fatalf("%d banks: enqueue %d refused below capacity", banks, i)
			}
		}
		if c.Enqueue(memReq(0, 0, 1, 0, false)) {
			t.Errorf("%d banks: MEM queue accepted past capacity", banks)
		}
		if !c.CanAccept(request.PIMOp) {
			t.Errorf("%d banks: full MEM queue blocked PIM intake (queues are separate)", banks)
		}
		if q := c.banks[0].q; cap(q) != cfg.Memory.MemQSize {
			t.Errorf("%d banks: bank 0 holds %d requests in a window of %d, want %d", banks, len(q), cap(q), cfg.Memory.MemQSize)
		}
	}
}

func TestMemReadCompletes(t *testing.T) {
	var done captured
	c := newCtl(sched.NewFRFCFS(), nil, &done)
	r := memReq(0, 3, 7, 1, false)
	c.Enqueue(r)
	runCycles(c, 0, 100)
	if len(done.reqs) != 1 || done.reqs[0] != r {
		t.Fatalf("completions = %v", done.reqs)
	}
	// ACT at ~0, column at tRCD=12, data at +tCL+burst: ~25 cycles.
	if done.times[0] < 12 || done.times[0] > 40 {
		t.Errorf("read completed at %d, expected ~25", done.times[0])
	}
}

func TestRowHitBypassesOlderConflict(t *testing.T) {
	var st stats.Channel
	c := newCtl(sched.NewFRFCFS(), &st, nil)
	// Open row 5 via the first request, then queue a conflicting row 6
	// (older) and another row 5 access (younger).
	c.Enqueue(memReq(0, 0, 5, 0, false))
	runCycles(c, 0, 30) // row 5 open, first request done
	older := memReq(0, 0, 6, 0, false)
	younger := memReq(0, 0, 5, 1, false)
	var done captured
	c.complete = done.fn
	c.Enqueue(older)
	c.Enqueue(younger)
	runCycles(c, 30, 120)
	if len(done.reqs) != 2 {
		t.Fatalf("completed %d of 2", len(done.reqs))
	}
	if done.reqs[0] != younger {
		t.Error("FR-FCFS did not let the row hit bypass the older conflict")
	}
	// Classification: the opener and the row-6 conflict are misses, the
	// bypassing row-5 access is the only hit.
	if st.RowHits != 1 || st.RowMisses != 2 {
		t.Errorf("hit/miss classification: hits=%d misses=%d, want 1/2", st.RowHits, st.RowMisses)
	}
}

func TestFCFSServesInArrivalOrder(t *testing.T) {
	var done captured
	c := newCtl(sched.NewFCFS(), nil, &done)
	c.Enqueue(memReq(0, 0, 5, 0, false))
	runCycles(c, 0, 30)
	older := memReq(0, 0, 6, 0, false)
	younger := memReq(0, 0, 5, 1, false)
	c.complete = done.fn
	done = captured{}
	c.Enqueue(older)
	c.Enqueue(younger)
	runCycles(c, 30, 150)
	if len(done.reqs) != 2 {
		t.Fatalf("completed %d of 2", len(done.reqs))
	}
	if done.reqs[0] != older {
		t.Error("FCFS reordered requests")
	}
}

func TestPIMExecutionFCFSAndLockstep(t *testing.T) {
	var st stats.Channel
	var done captured
	c := newCtl(sched.NewPIMFirst(), &st, &done)
	// One block: 3 ops to row 9, then a block boundary to row 10.
	c.Enqueue(pimReq(0, 9, 0, 0, request.PIMLoad))
	c.Enqueue(pimReq(0, 9, 0, 1, request.PIMLoad))
	c.Enqueue(pimReq(0, 9, 0, 0, request.PIMStore))
	c.Enqueue(pimReq(0, 10, 1, 0, request.PIMLoad))
	runCycles(c, 0, 200)
	if len(done.reqs) != 4 {
		t.Fatalf("completed %d of 4 PIM ops", len(done.reqs))
	}
	if st.PIMOps != 4 {
		t.Errorf("PIM ops = %d", st.PIMOps)
	}
	if st.PIMRowMisses != 2 {
		t.Errorf("lockstep misses = %d, want 2 (rows 9 and 10)", st.PIMRowMisses)
	}
	if st.PIMRowHits != 2 {
		t.Errorf("lockstep hits = %d, want 2", st.PIMRowHits)
	}
	// The controller ran the ops on the PIM units: entry 1, loaded in
	// block 0, may now be stored.
	if err := c.Units().Execute(&request.PIMInfo{Op: request.PIMStore, RFEntry: 1, Block: 1}); err != nil {
		t.Errorf("PIM units did not see the executed loads: %v", err)
	}
	// PIM traffic alone never opens the MEM queue's per-bank windows.
	for b := range c.banks {
		if c.banks[b].q != nil {
			t.Fatalf("PIM-only controller: bank %d has a MEM window of %d", b, cap(c.banks[b].q))
		}
	}
}

// issueLog records the requests of the PIM ops a controller issues.
type issueLog struct{ ops []uint64 }

func (l *issueLog) Record(e trace.Event) {
	if e.Kind == trace.EvPIMOp {
		l.ops = append(l.ops, e.ReqID)
	}
}

// TestPIMQueueMatchesCountedModel drives a PIM-only controller with
// arrivals at random cycles, in blocks of random rows, sometimes into a
// full queue. The ops must issue in enqueue order, a full queue must refuse
// an arrival, and after every cycle QueueLens, the view's PIMQLen and Held
// must match what counting enqueues, issues and completions gives.
func TestPIMQueueMatchesCountedModel(t *testing.T) {
	cfg := config.Paper()
	var log issueLog
	completed := 0
	c := New(0, cfg, sched.NewPIMFirst(), nil, func(*request.Request, uint64) { completed++ })
	c.SetSink(&log)
	rng := rand.New(rand.NewSource(1))
	var enqueued []uint64
	refused, block, row := 0, 0, uint32(0)
	for now := uint64(1); now <= 20000; now++ {
		for n := rng.Intn(3); n > 0; n-- {
			if rng.Intn(16) == 0 {
				block, row = block+1, uint32(rng.Intn(8))
			}
			r := pimReq(0, row, block, rng.Intn(8), request.PIMLoad)
			full := len(enqueued)-len(log.ops) == cfg.Memory.PIMQSize
			if c.CanAccept(request.PIMOp) == full || c.Enqueue(r) == full {
				t.Fatalf("cycle %d: queue of %d accepted=%v", now, len(enqueued)-len(log.ops), !full)
			}
			if full {
				refused++
			} else {
				enqueued = append(enqueued, r.ID)
			}
		}
		c.Tick(now)
		queued, held := len(enqueued)-len(log.ops), len(enqueued)-completed
		if mem, pim := c.QueueLens(); mem != 0 || pim != queued || c.View().PIMQLen() != queued || c.Held() != held {
			t.Fatalf("cycle %d: QueueLens %d/%d, PIMQLen %d, Held %d; counted 0/%d, %d, %d",
				now, mem, pim, c.View().PIMQLen(), c.Held(), queued, queued, held)
		}
	}
	for i, id := range log.ops {
		if id != enqueued[i] {
			t.Fatalf("op %d issued request %d, enqueued %d", i, id, enqueued[i])
		}
	}
	if len(log.ops) == 0 || completed == 0 || refused == 0 || block == 0 {
		t.Fatalf("vacuous run: %d issued, %d completed, %d refused, %d blocks", len(log.ops), completed, refused, block)
	}
}

func TestModeSwitchDrainsInFlightMEM(t *testing.T) {
	var st stats.Channel
	var done captured
	c := newCtl(sched.NewFCFS(), &st, &done)
	// A MEM request then a PIM request: FCFS switches after the MEM
	// request, but only once it has fully completed.
	m := memReq(0, 0, 5, 0, false)
	p := pimReq(0, 9, 0, 0, request.PIMLoad)
	c.Enqueue(m)
	c.Enqueue(p)
	runCycles(c, 0, 200)
	if len(done.reqs) != 2 {
		t.Fatalf("completed %d of 2", len(done.reqs))
	}
	if done.reqs[0] != m || done.reqs[1] != p {
		t.Error("completion order wrong across a mode switch")
	}
	if st.MemToPIMSwitches != 1 {
		t.Errorf("MEM->PIM switches = %d, want 1", st.MemToPIMSwitches)
	}
	if st.Switches == 0 {
		t.Error("no switches recorded")
	}
}

func TestDrainLatencyAccounted(t *testing.T) {
	var st stats.Channel
	c := newCtl(sched.NewFCFS(), &st, nil)
	m := memReq(0, 0, 5, 0, true) // write: long recovery -> long drain
	c.Enqueue(m)
	// Let the write issue, then enqueue PIM to trigger a switch while
	// the write is in flight.
	runCycles(c, 0, 14)
	c.Enqueue(pimReq(0, 9, 0, 0, request.PIMLoad))
	runCycles(c, 14, 200)
	if st.MemToPIMSwitches != 1 {
		t.Fatalf("switches = %d", st.MemToPIMSwitches)
	}
	if st.DrainLatencySum == 0 {
		t.Error("drain latency not accounted for an in-flight write")
	}
}

func TestPostSwitchConflictsCounted(t *testing.T) {
	var st stats.Channel
	var done captured
	c := newCtl(sched.NewFCFS(), &st, &done)
	// MEM opens row 5; PIM phase moves all banks to row 9; MEM returns
	// to row 5 -> post-switch conflict.
	c.Enqueue(memReq(0, 0, 5, 0, false))
	runCycles(c, 0, 40)
	c.Enqueue(pimReq(0, 9, 0, 0, request.PIMLoad))
	runCycles(c, 40, 140)
	c.Enqueue(memReq(0, 0, 5, 1, false))
	runCycles(c, 140, 300)
	if len(done.reqs) != 3 {
		t.Fatalf("completed %d of 3", len(done.reqs))
	}
	if st.PostSwitchConflicts != 1 {
		t.Errorf("post-switch conflicts = %d, want 1", st.PostSwitchConflicts)
	}
}

func TestViewReportsOldestAndOccupancy(t *testing.T) {
	c := newCtl(sched.NewFRFCFS(), nil, nil)
	v := c.View()
	if _, ok := v.OldestOverall(); ok {
		t.Error("empty controller reported an oldest request")
	}
	c.Enqueue(pimReq(0, 1, 0, 0, request.PIMLoad))
	c.Enqueue(memReq(0, 0, 1, 0, false))
	if m, ok := v.OldestOverall(); !ok || m != sched.ModePIM {
		t.Errorf("oldest = %v/%v, want PIM/true", m, ok)
	}
	if v.MemQLen() != 1 || v.PIMQLen() != 1 {
		t.Errorf("queue lens = %d/%d", v.MemQLen(), v.PIMQLen())
	}
}

func TestBypassReportingToPolicy(t *testing.T) {
	rec := &recordingPolicy{}
	c := newCtl(rec, nil, nil)
	// Older PIM request waits while MEM is serviced: the MEM issue must
	// report BypassedOlderOtherMode (the F3FS cap event).
	c.Enqueue(pimReq(0, 9, 0, 0, request.PIMLoad))
	c.Enqueue(memReq(0, 0, 5, 0, false))
	runCycles(c, 0, 60)
	found := false
	for _, info := range rec.issues {
		if info.Mode == sched.ModeMEM && info.BypassedOlderOtherMode {
			found = true
		}
	}
	if !found {
		t.Error("MEM issue over older PIM request not reported as a bypass")
	}
}

// recordingPolicy pins the controller in MEM mode and records issues.
type recordingPolicy struct {
	issues   []sched.IssueInfo
	switches int
}

func (p *recordingPolicy) Name() string                            { return "recording" }
func (p *recordingPolicy) DesiredMode(sched.View) sched.Mode       { return sched.ModeMEM }
func (p *recordingPolicy) OnIssue(_ sched.View, i sched.IssueInfo) { p.issues = append(p.issues, i) }
func (p *recordingPolicy) OnSwitch(sched.View, sched.Mode)         { p.switches++ }

func TestBLPAcrossBanksInMemMode(t *testing.T) {
	var st stats.Channel
	var done captured
	c := newCtl(sched.NewFRFCFS(), &st, &done)
	for b := 0; b < 8; b++ {
		c.Enqueue(memReq(0, b, 1, 0, false))
	}
	c.SyncStats(runCycles(c, 0, 300) - 1)
	if len(done.reqs) != 8 {
		t.Fatalf("completed %d of 8", len(done.reqs))
	}
	if blp := st.BLP(); blp < 1.5 {
		t.Errorf("BLP = %.2f across 8 banks, want > 1.5 (overlapped activates)", blp)
	}
}
