package cache

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/invariant"
	"repro/internal/request"
)

var cid uint64

func rd(addr uint64) *request.Request {
	cid++
	return &request.Request{ID: cid, Kind: request.MemRead, Addr: addr}
}

func wr(addr uint64) *request.Request {
	cid++
	return &request.Request{ID: cid, Kind: request.MemWrite, Addr: addr}
}

func newSlice() *Slice {
	cfg := config.Paper().Cache
	return NewSlice(cfg, 192<<10) // one paper slice: 6 MB / 32 channels
}

func TestColdMissThenHit(t *testing.T) {
	s := newSlice()
	r := rd(0x1000)
	res, fw := s.Access(r, 10)
	if res != Miss {
		t.Fatalf("cold access = %v, want miss", res)
	}
	if len(fw) != 1 || fw[0] != r {
		t.Fatalf("forwards = %v", fw)
	}
	if got := s.Fill(r); len(got) != 1 || got[0] != r {
		t.Fatalf("fill completed %v", got)
	}
	if res, _ := s.Access(rd(0x1000), 10); res != Hit {
		t.Errorf("second access = %v, want hit", res)
	}
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d", s.Hits, s.Misses)
	}
}

func TestMSHRMerging(t *testing.T) {
	s := newSlice()
	a, b, c := rd(0x2000), rd(0x2000), rd(0x2008) // same 32 B line
	if res, _ := s.Access(a, 10); res != Miss {
		t.Fatal("first access should miss")
	}
	if res, _ := s.Access(b, 10); res != Merged {
		t.Error("same-line access did not merge")
	}
	if res, _ := s.Access(c, 10); res != Merged {
		t.Error("same-line different-offset access did not merge")
	}
	done := s.Fill(a)
	if len(done) != 3 {
		t.Fatalf("fill released %d, want 3", len(done))
	}
	if s.MSHRsInUse() != 0 {
		t.Error("MSHR leaked")
	}
}

func TestMSHRCapacityBlocks(t *testing.T) {
	cfg := config.Paper().Cache
	cfg.MSHRs = 2
	s := NewSlice(cfg, 192<<10)
	s.Access(rd(0x0), 10)
	s.Access(rd(0x10000), 10)
	if res, _ := s.Access(rd(0x20000), 10); res != Blocked {
		t.Errorf("access with full MSHRs = %v, want blocked", res)
	}
}

func TestDownstreamSpaceBlocks(t *testing.T) {
	s := newSlice()
	if res, _ := s.Access(rd(0x0), 0); res != Blocked {
		t.Errorf("miss with no downstream space = %v, want blocked", res)
	}
	// Still serviceable later.
	if res, _ := s.Access(rd(0x0), 1); res != Miss {
		t.Error("retry after space freed did not miss-allocate")
	}
}

func TestWriteAllocateAndDirtyWriteback(t *testing.T) {
	s := newSlice()
	w := wr(0x3000)
	res, fw := s.Access(w, 10)
	if res != Miss || len(fw) != 1 {
		t.Fatalf("store miss: res=%v forwards=%d", res, len(fw))
	}
	s.Fill(w)
	// Evict the dirty line by filling the set: same set = same index
	// bits. Set count is 384; stride by lineBytes*sets to stay in set.
	setStride := uint64(32 * s.Sets())
	evictions := 0
	for i := 1; i <= 16; i++ {
		r := rd(0x3000 + uint64(i)*setStride)
		res, fw := s.Access(r, 10)
		if res != Miss {
			t.Fatalf("fill-set access %d = %v", i, res)
		}
		for _, f := range fw {
			if f.Synthetic {
				evictions++
				if f.Kind != request.MemWrite {
					t.Error("writeback is not a write")
				}
				if f.Addr != 0x3000 {
					t.Errorf("writeback addr %#x, want 0x3000", f.Addr)
				}
			}
		}
		s.Fill(r)
	}
	if evictions != 1 {
		t.Errorf("dirty evictions = %d, want exactly 1", evictions)
	}
	if s.Writebacks != 1 {
		t.Errorf("writeback counter = %d", s.Writebacks)
	}
}

func TestWritebackNeedsTwoDownstreamSlots(t *testing.T) {
	s := newSlice()
	w := wr(0x4000)
	s.Access(w, 10)
	s.Fill(w)
	setStride := uint64(32 * s.Sets())
	// Fill the set so the dirty line is the LRU victim.
	for i := 1; i < 16; i++ {
		r := rd(0x4000 + uint64(i)*setStride)
		s.Access(r, 10)
		s.Fill(r)
	}
	// Touch the dirty line is NOT needed; next miss evicts LRU = 0x4000.
	victim := rd(0x4000 + 16*setStride)
	if res, _ := s.Access(victim, 1); res != Blocked {
		t.Error("miss with dirty eviction accepted with 1 downstream slot")
	}
	if res, fw := s.Access(victim, 2); res != Miss || len(fw) != 2 {
		t.Errorf("miss with dirty eviction: res=%v forwards=%d, want miss/2", res, len(fw))
	}
}

func TestLRUReplacement(t *testing.T) {
	s := newSlice()
	setStride := uint64(32 * s.Sets())
	// Fill a set with 16 lines; touch line 0 again; allocate a 17th:
	// the victim must not be line 0.
	var lines []*request.Request
	for i := 0; i < 16; i++ {
		r := rd(uint64(i) * setStride)
		s.Access(r, 10)
		s.Fill(r)
		lines = append(lines, r)
	}
	if res, _ := s.Access(rd(0), 10); res != Hit {
		t.Fatal("line 0 should hit")
	}
	n := rd(16 * setStride)
	s.Access(n, 10)
	s.Fill(n)
	if res, _ := s.Access(rd(0), 10); res != Hit {
		t.Error("LRU evicted the most-recently-used line")
	}
	if res, _ := s.Access(rd(1*setStride), 10); res != Miss {
		t.Error("LRU kept the least-recently-used line")
	}
}

func TestPIMRequestPanics(t *testing.T) {
	s := newSlice()
	defer func() {
		if recover() == nil {
			t.Error("PIM request accepted by the L2 (must bypass)")
		}
	}()
	cid++
	s.Access(&request.Request{ID: cid, Kind: request.PIMOp}, 10)
}

func TestFillUnknownPanics(t *testing.T) {
	s := newSlice()
	defer func() {
		if recover() == nil {
			t.Error("fill for unknown fetch accepted")
		}
	}()
	s.Fill(rd(0x5000))
}

// TestRandomizedCoherence drives the slice with a random mix and checks
// the accounting invariants: every miss eventually fills, MSHRs drain,
// hits+misses+merged = accesses.
func TestRandomizedCoherence(t *testing.T) {
	s := newSlice()
	rng := rand.New(rand.NewSource(11))
	outstanding := map[*request.Request]bool{}
	var accesses, hits, misses, merged uint64
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<22)) &^ 31
		var r *request.Request
		if rng.Intn(4) == 0 {
			r = wr(addr)
		} else {
			r = rd(addr)
		}
		res, fw := s.Access(r, 1000)
		accesses++
		switch res {
		case Hit:
			hits++
		case Miss:
			misses++
			outstanding[fw[0]] = true
		case Merged:
			merged++
		case Blocked:
			accesses--
		}
		// Randomly fill an outstanding fetch.
		if len(outstanding) > 0 && rng.Intn(3) == 0 {
			for p := range outstanding {
				s.Fill(p)
				delete(outstanding, p)
				break
			}
		}
	}
	for p := range outstanding {
		s.Fill(p)
		delete(outstanding, p)
	}
	if s.MSHRsInUse() != 0 {
		t.Errorf("MSHRs leaked: %d", s.MSHRsInUse())
	}
	if s.Hits != hits || s.Misses != misses || s.MergedCount != merged {
		t.Errorf("counter mismatch: %d/%d/%d vs %d/%d/%d",
			s.Hits, s.Misses, s.MergedCount, hits, misses, merged)
	}
	if hits+misses+merged != accesses {
		t.Errorf("accesses %d != hits %d + misses %d + merged %d", accesses, hits, misses, merged)
	}
}

// dirtySet fills one set with dirty lines, so the next misses mapping to
// it each evict one; it returns the set's stride.
func dirtySet(s *Slice, base uint64) uint64 {
	setStride := uint64(32 * s.Sets())
	for i := 0; i < 16; i++ {
		w := wr(base + uint64(i)*setStride)
		s.Access(w, 10)
		s.Fill(w)
	}
	return setStride
}

// TestScratchValidUntilNextCall pins the lifetime of the slices Access
// and Fill return: they are the slice's own scratch storage, intact
// until the next call of the same method and overwritten by it.
func TestScratchValidUntilNextCall(t *testing.T) {
	s := newSlice()
	stride := dirtySet(s, 0x8000)

	a := rd(0x8000 + 16*stride)
	_, fwA := s.Access(a, 10)
	if len(fwA) != 2 || fwA[0] != a || !fwA[1].Synthetic {
		t.Fatalf("miss with dirty victim forwarded %v", fwA)
	}
	wbA := fwA[1]
	// Hits, merges and a Fill in between leave the forwards alone.
	s.Access(rd(0x8000+16*stride), 10) // merges into a's fetch
	if done := s.Fill(a); len(done) != 2 || done[0] != a {
		t.Fatalf("fill released %v", done)
	}
	s.Access(rd(0x8000+16*stride), 10) // hit
	if fwA[0] != a || fwA[1] != wbA {
		t.Error("forwards changed before the next miss")
	}
	b := rd(0x8000 + 17*stride)
	_, fwB := s.Access(b, 10)
	if len(fwB) != 2 || fwB[0] != b || fwB[1] == wbA {
		t.Fatalf("second miss forwarded %v", fwB)
	}
	if &fwA[0] != &fwB[0] {
		t.Error("Access allocated a new forwards slice instead of reusing its scratch")
	}

	// Fill's result survives Accesses and is reused by the next Fill.
	c := rd(0x20)
	s.Access(c, 10)
	doneB := s.Fill(b)
	s.Access(rd(0x20), 10) // merge
	if len(doneB) != 1 || doneB[0] != b {
		t.Error("completed changed before the next Fill")
	}
	doneC := s.Fill(c)
	if len(doneC) != 2 || doneC[0] != c || &doneB[0] != &doneC[0] {
		t.Errorf("next Fill returned %v (scratch reused: %v)", doneC, &doneB[0] == &doneC[0])
	}
}

// TestRecycledMSHRIsClean: a fetch record reused for another line must
// not carry the previous fetch's waiters or its dirty bit.
func TestRecycledMSHRIsClean(t *testing.T) {
	cfg := config.Paper().Cache
	cfg.MSHRs = 1 // every fetch reuses the one record
	s := NewSlice(cfg, 192<<10)

	first := rd(0x100)
	s.Access(first, 10)
	s.Access(wr(0x100), 10) // merged store: the fetch is dirty
	s.Access(rd(0x108), 10)
	if got := s.Waiters(); got != 2 {
		t.Fatalf("Waiters = %d, want 2", got)
	}
	if done := s.Fill(first); len(done) != 3 {
		t.Fatalf("first fill released %d, want 3", len(done))
	}
	if s.Waiters() != 0 || s.MSHRsInUse() != 0 {
		t.Fatalf("after fill: waiters=%d in use=%d", s.Waiters(), s.MSHRsInUse())
	}

	second := rd(0x4000)
	if res, _ := s.Access(second, 10); res != Miss {
		t.Fatalf("second fetch = %v, want miss", res)
	}
	if done := s.Fill(second); len(done) != 1 || done[0] != second {
		t.Fatalf("recycled MSHR released %v, want only its own primary", done)
	}
	// A clean line evicts silently; a stale dirty bit would show up as a
	// writeback when 0x4000's set is overrun.
	stride := uint64(32 * s.Sets())
	for i := 1; i <= 16; i++ {
		r := rd(0x4000 + uint64(i)*stride)
		if _, fw := s.Access(r, 10); len(fw) != 1 {
			t.Fatalf("eviction %d forwarded %d requests: read-only line written back", i, len(fw))
		}
		s.Fill(r)
	}
}

// TestPooledWritebacks: with a pool attached the writeback requests come
// from it, and the miss round trip stops allocating.
func TestPooledWritebacks(t *testing.T) {
	s := newSlice()
	pool := request.NewPool()
	s.SetPool(pool)
	stride := dirtySet(s, 0)
	next := 16
	reqs := make([]request.Request, 64)
	roundTrip := func() {
		for i := range reqs {
			r := &reqs[i]
			*r = request.Request{Kind: request.MemWrite, Addr: uint64(next) * stride}
			next++
			res, fw := s.Access(r, 10)
			if res != Miss || len(fw) != 2 {
				t.Fatalf("access %d: res=%v forwards=%d", next, res, len(fw))
			}
			pool.Put(fw[1]) // the writeback's end of life
			s.Fill(r)
		}
	}
	roundTrip()
	if pool.Live() != 0 {
		t.Errorf("pool has %d requests out after every writeback was returned", pool.Live())
	}
	if invariant.Enabled {
		return // simdebug build: the conservation checks allocate by design
	}
	if avg := testing.AllocsPerRun(10, roundTrip); avg != 0 {
		t.Errorf("miss + dirty eviction + fill: %v allocs per %d round trips, want 0", avg, len(reqs))
	}
}

// lruSlice is one two-way set with two MSHRs: small enough to steer which
// way every line lands in. Lines p, q and r all map to its only set.
func lruSlice() (s *Slice, p, q, r uint64) {
	cfg := config.Paper().Cache
	cfg.Ways, cfg.MSHRs = 2, 2
	s = NewSlice(cfg, cfg.LineBytes*cfg.Ways)
	line := uint64(cfg.LineBytes)
	return s, 1 * line, 2 * line, 3 * line
}

// TestCreditedRetriesKeepTheVictim pins the LRU clock under skipped
// retries. Access ticks the clock whatever its outcome and Fill stamps a
// line without ticking, so the Blocked retries of a stuck request are what
// separate the stamps of two fills. A caller that skips retries it knows
// would be refused (the sim's parked L2 intake) must credit them, or the
// two fills tie and victim selection — strict <, lowest way wins — evicts
// the other line.
func TestCreditedRetriesKeepTheVictim(t *testing.T) {
	const retries = 3
	// victim runs: fetch p and q (ways 0 and 1), fill q, let a third
	// request be refused `retries` times as between does it, fill p, then
	// miss on r and report which of p and q it replaced.
	victim := func(t *testing.T, between func(s *Slice, stuck *request.Request)) string {
		s, p, q, r := lruSlice()
		fp, fq := rd(p), rd(q)
		for _, f := range []*request.Request{fp, fq} {
			if res, _ := s.Access(f, 10); res != Miss {
				t.Fatalf("fetch of %#x = %v, want miss", f.Addr, res)
			}
		}
		s.Fill(fq)
		between(s, rd(r))
		s.Fill(fp)
		if res, _ := s.Access(rd(r), 10); res != Miss {
			t.Fatalf("access to %#x = %v, want miss", r, res)
		}
		switch pIn, qIn := s.find(p) != nil, s.find(q) != nil; {
		case pIn && !qIn:
			return "q"
		case qIn && !pIn:
			return "p"
		default:
			t.Fatalf("after the eviction p present=%v, q present=%v", pIn, qIn)
			return ""
		}
	}
	presented := victim(t, func(s *Slice, stuck *request.Request) {
		for i := 0; i < retries; i++ {
			// No room downstream: refused, but the clock ticks.
			if res, _ := s.Access(stuck, 0); res != Blocked {
				t.Fatalf("retry %d = %v, want blocked", i, res)
			}
		}
	})
	if presented != "q" {
		t.Fatalf("with every retry presented the miss evicted %s, want q (filled %d clock ticks before p)", presented, retries)
	}
	if got := victim(t, func(s *Slice, _ *request.Request) { s.CreditRetries(retries) }); got != presented {
		t.Errorf("with the retries credited the miss evicted %s, want %s as when they are presented", got, presented)
	}
	// The omission this test exists for: skipped and not credited, the two
	// fills carry one stamp and the lower way — p — goes instead.
	if got := victim(t, func(*Slice, *request.Request) {}); got != "p" {
		t.Errorf("with the retries dropped the miss evicted %s; the tie this test builds is gone", got)
	}
}

// TestInvariantsCatchLeakedMSHR is the mutation test for the slice's
// simdebug conservation check: an MSHR record taken without a fetch behind
// it (or never returned by a fill) must fail the next state-changing access
// in a simdebug build, and pass unnoticed in a release build.
func TestInvariantsCatchLeakedMSHR(t *testing.T) {
	cases := map[string]func(s *Slice){
		"leaked record":      func(s *Slice) { s.allocMSHR() },
		"lost merged waiter": func(s *Slice) { m := &s.mshrs[0]; m.merged = m.merged[:len(m.merged)-1] },
		"orphaned pending line": func(s *Slice) {
			for i := range s.lines {
				s.lines[i].pending = false
			}
		},
	}
	for name, corrupt := range cases {
		s := newSlice()
		first := rd(0x1000)
		s.Access(first, 10)
		s.Access(rd(0x1000), 10) // merges: a healthy slice passes the checks
		corrupt(s)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			s.Access(rd(0x2000), 10)
			for i := 0; i < 64; i++ { // the line walk runs on every 64th check
				s.Access(rd(0x2000), 10)
			}
			return false
		}()
		if panicked != invariant.Enabled {
			t.Errorf("%s: next accesses panicked=%v, want %v", name, panicked, invariant.Enabled)
		}
	}
}
