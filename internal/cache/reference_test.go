package cache

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/request"
)

// refLine keeps each of a line's fields apart: the tag, the LRU stamp and
// the fetch record's index each in their own field, and a bool per flag.
type refLine struct {
	tag      uint64
	lastUsed uint64
	mshr     int32
	valid    bool
	pending  bool
	dirty    bool
}

type refMSHR struct {
	primary *request.Request
	merged  []*request.Request
}

// refSlice is the reference model of Slice: the same set-associative,
// write-back, write-allocate L2 with LRU replacement and MSHR merging,
// written plainly over refLine, with slices for the merge lists.
type refSlice struct {
	lineBytes, sets, ways int
	lines                 []refLine
	mshrs                 []refMSHR
	free                  []int32
	mshrCap               int
	useClock              uint64

	hits, misses, merged, writebacks uint64
}

func newRefSlice(cfg config.Cache, sliceBytes int) *refSlice {
	sets := sliceBytes / (cfg.LineBytes * cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	return &refSlice{
		lineBytes: cfg.LineBytes, sets: sets, ways: cfg.Ways, mshrCap: cfg.MSHRs,
		lines: make([]refLine, sets*cfg.Ways),
	}
}

func (m *refSlice) inUse() int { return len(m.mshrs) - len(m.free) }

func (m *refSlice) waiters() int {
	n := 0
	for _, r := range m.mshrs {
		n += len(r.merged)
	}
	return n
}

func (m *refSlice) set(la uint64) []refLine {
	i := int(la/uint64(m.lineBytes)%uint64(m.sets)) * m.ways
	return m.lines[i : i+m.ways]
}

func (m *refSlice) find(la uint64) *refLine {
	set := m.set(la)
	for i := range set {
		if set[i].tag == la && (set[i].valid || set[i].pending) {
			return &set[i]
		}
	}
	return nil
}

// access presents r; on a miss that evicts a dirty victim it also returns
// the victim's address, which the writeback must carry.
func (m *refSlice) access(r *request.Request, space int) (res AccessResult, wbAddr uint64, wb bool) {
	la := r.Addr &^ uint64(m.lineBytes-1)
	m.useClock++
	if ln := m.find(la); ln != nil {
		if r.Kind == request.MemWrite {
			ln.dirty = true
		}
		if ln.valid {
			ln.lastUsed = m.useClock
			m.hits++
			return Hit, 0, false
		}
		rec := &m.mshrs[ln.mshr]
		rec.merged = append(rec.merged, r)
		m.merged++
		return Merged, 0, false
	}
	if m.inUse() >= m.mshrCap {
		return Blocked, 0, false
	}
	set := m.set(la)
	victim := -1
	for i := range set {
		if set[i].pending {
			continue
		}
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].lastUsed < set[victim].lastUsed {
			victim = i
		}
	}
	if victim < 0 {
		return Blocked, 0, false
	}
	v := set[victim]
	wb = v.valid && v.dirty
	need := 1
	if wb {
		need = 2
	}
	if space < need {
		return Blocked, 0, false
	}
	var mi int32
	if n := len(m.free); n > 0 {
		mi, m.free = m.free[n-1], m.free[:n-1]
	} else {
		m.mshrs = append(m.mshrs, refMSHR{})
		mi = int32(len(m.mshrs) - 1)
	}
	m.mshrs[mi] = refMSHR{primary: r}
	set[victim] = refLine{tag: la, lastUsed: m.useClock, mshr: mi, pending: true, dirty: r.Kind == request.MemWrite}
	m.misses++
	if wb {
		m.writebacks++
	}
	return Miss, v.tag, wb
}

// fill completes the fetch whose primary is r and returns the primary,
// then its merged waiters in arrival order.
func (m *refSlice) fill(r *request.Request) []*request.Request {
	ln := m.find(r.Addr &^ uint64(m.lineBytes-1))
	rec := m.mshrs[ln.mshr]
	ln.pending, ln.valid, ln.lastUsed = false, true, m.useClock
	m.mshrs[ln.mshr] = refMSHR{}
	m.free = append(m.free, ln.mshr)
	return append([]*request.Request{rec.primary}, rec.merged...)
}

// TestSliceMatchesReferenceModel drives Slice and refSlice with one seeded
// random mix of reads, writes, fills and credited retries on a slice small
// enough that sets evict dirty victims, requests merge, and misses block on
// the MSHRs, a fully pending set or the downstream space. After every step
// the two must agree on the outcome, the forwards (the writeback's address
// included), the requests a fill releases and their order, the counters,
// the MSHRs in use and the parked waiters; any drift in victim choice,
// dirty tracking or MSHR bookkeeping shows as a mismatch.
func TestSliceMatchesReferenceModel(t *testing.T) {
	cfg := config.Paper().Cache
	cfg.Ways, cfg.MSHRs = 4, 6
	const sets, lineSpace, steps = 4, 48, 20000
	sliceBytes := cfg.LineBytes * cfg.Ways * sets
	for _, seed := range []int64{1, 2, 3} {
		s, m := NewSlice(cfg, sliceBytes), newRefSlice(cfg, sliceBytes)
		rng := rand.New(rand.NewSource(seed))
		var outstanding []*request.Request
		var results [4]int
		fills := 0
		check := func(step int, what string) {
			t.Helper()
			if s.Hits != m.hits || s.Misses != m.misses || s.MergedCount != m.merged || s.Writebacks != m.writebacks {
				t.Fatalf("seed %d step %d (%s): counters hits/misses/merged/writebacks %d/%d/%d/%d, model %d/%d/%d/%d",
					seed, step, what, s.Hits, s.Misses, s.MergedCount, s.Writebacks, m.hits, m.misses, m.merged, m.writebacks)
			}
			if s.MSHRsInUse() != m.inUse() || s.Waiters() != m.waiters() || s.UseClock() != m.useClock {
				t.Fatalf("seed %d step %d (%s): MSHRs in use %d, waiters %d, clock %d; model %d, %d, %d",
					seed, step, what, s.MSHRsInUse(), s.Waiters(), s.UseClock(), m.inUse(), m.waiters(), m.useClock)
			}
		}
		fill := func(step, i int) {
			t.Helper()
			p := outstanding[i]
			outstanding[i] = outstanding[len(outstanding)-1]
			outstanding = outstanding[:len(outstanding)-1]
			got, want := s.Fill(p), m.fill(p)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: fill of %#x released %d requests, model %d", seed, step, p.Addr, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d step %d: fill of %#x released request %d out of order", seed, step, p.Addr, j)
				}
			}
			fills++
			check(step, "fill")
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				addr := uint64(rng.Intn(lineSpace)*cfg.LineBytes + rng.Intn(cfg.LineBytes))
				r := rd(addr)
				if rng.Intn(3) == 0 {
					r = wr(addr)
				}
				space := rng.Intn(4)
				res, fw := s.Access(r, space)
				want, wbAddr, wb := m.access(r, space)
				if res != want {
					t.Fatalf("seed %d step %d: access to %#x (space %d) = %v, model %v", seed, step, addr, space, res, want)
				}
				results[res]++
				switch {
				case res != Miss && fw != nil:
					t.Fatalf("seed %d step %d: %v forwarded %d requests", seed, step, res, len(fw))
				case res == Miss && (len(fw) == 0 || fw[0] != r):
					t.Fatalf("seed %d step %d: a miss did not forward its own request first: %v", seed, step, fw)
				case res == Miss && wb != (len(fw) == 2):
					t.Fatalf("seed %d step %d: miss forwarded %d requests, model writes back: %v", seed, step, len(fw), wb)
				case wb && (fw[1].Addr != wbAddr || fw[1].Kind != request.MemWrite || !fw[1].Synthetic || fw[1].SM != r.SM || fw[1].App != r.App):
					t.Fatalf("seed %d step %d: writeback %v, model writes back %#x", seed, step, fw[1], wbAddr)
				}
				if res == Miss {
					outstanding = append(outstanding, r)
				}
				check(step, res.String())
			case op < 9:
				if len(outstanding) > 0 {
					fill(step, rng.Intn(len(outstanding)))
				}
			default:
				n := uint64(rng.Intn(4))
				s.CreditRetries(n)
				m.useClock += n
				check(step, "credit")
			}
		}
		for len(outstanding) > 0 {
			fill(steps, len(outstanding)-1)
		}
		t.Logf("seed %d: hit/miss/merged/blocked %v, %d writebacks, %d fills", seed, results, s.Writebacks, fills)
		// The mix must reach every outcome, or the comparison proves little.
		if results[Hit] == 0 || results[Merged] == 0 || results[Blocked] == 0 || s.Writebacks == 0 || fills == 0 {
			t.Errorf("seed %d: outcomes hit/miss/merged/blocked %v, %d writebacks, %d fills: the mix misses a path",
				seed, results, s.Writebacks, fills)
		}
	}
}
