// Package cache implements the per-channel L2 slice. MEM requests are
// filtered by the slice (hits complete locally; misses are fetched from
// DRAM through MSHRs with same-line merging); PIM requests never enter the
// cache — they are cache-streaming stores that bypass all caches and are
// forwarded straight to the memory controller (Sec. III-A).
//
// The slice is set-associative with LRU replacement and write-back,
// write-allocate semantics: dirty victims generate writeback requests that
// add to the channel's DRAM write traffic. The same type models each SM's
// L1D. Line metadata is most of what a slice allocates, so a line is 16
// bytes: its state flags ride in the alignment bits of its address, and a
// pending line keeps its fetch record's index where a valid one keeps its
// LRU stamp (see line).
package cache

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/invariant"
	"repro/internal/request"
)

// AccessResult classifies the outcome of presenting a request to the
// slice.
type AccessResult int

const (
	// Hit means the line was present; the request completes after the
	// hit latency with no DRAM traffic.
	Hit AccessResult = iota
	// Miss means the request was forwarded to DRAM (and possibly a
	// dirty victim writeback alongside it).
	Miss
	// Merged means the line is already being fetched; the request
	// piggybacks on the existing MSHR and completes at fill time.
	Merged
	// Blocked means the slice cannot take the request this cycle (MSHRs
	// exhausted, the set fully pending, or insufficient downstream
	// queue space); the caller must retry later. Blocked intake is the
	// backpressure that propagates into the interconnect.
	Blocked
)

// String names the result.
func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Merged:
		return "merged"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("AccessResult(%d)", int(r))
}

// line is one way of a set, in 16 bytes. key is the line's address OR-ed
// with its state flags: a line address is LineBytes-aligned, and
// config.Validate holds LineBytes to a power of two of at least 8, so its
// low three bits are always zero and free to carry the state. stamp is
// the LRU stamp while the line is valid and the index of its fetch's
// record in Slice.mshrs while it is pending: nothing reads a pending
// line's LRU stamp (planMiss skips pending ways, and Fill stamps the line
// afresh). An invalid line is the zero value.
type line struct {
	key   uint64
	stamp uint64
}

// The state flags a line's key carries below its address.
const (
	lineValid   uint64 = 1 << iota // filled and usable
	linePending                    // allocated, fetch in flight
	// lineDirty: written since the fill. While pending (when nothing reads
	// it) it records whether the fetch's primary or a merged request
	// stores, and so what the line will be at the fill.
	lineDirty
	lineFlags = lineValid | linePending | lineDirty
)

func (l line) tag() uint64   { return l.key &^ lineFlags }
func (l line) valid() bool   { return l.key&lineValid != 0 }
func (l line) pending() bool { return l.key&linePending != 0 }
func (l line) dirty() bool   { return l.key&lineDirty != 0 }

// mshr returns a pending line's fetch record index.
func (l line) mshr() int32 { return int32(l.stamp) }

// mshr is one outstanding fetch. Records are recycled through
// Slice.mshrFree; merged links its waiters through the requests
// themselves, so a merge allocates nothing.
type mshr struct {
	primary *request.Request
	merged  request.Chain
}

// Slice is one channel's L2 slice.
type Slice struct {
	cfg      config.Cache
	sets     int
	ways     int
	lineMask uint64
	// lines holds every set back to back: set i is lines[i*ways:(i+1)*ways].
	// It is nil until the first Access or WouldBlock (see materialize): a
	// slice that only PIM traffic passes never needs it.
	lines []line
	// mshrs grows up to mshrCap records inside a backing array sized by
	// materialize; a pending line names its record by index, so no lookup
	// table is needed. mshrFree lists the idle records, reused
	// last-freed-first.
	mshrs    []mshr
	mshrFree []int32
	mshrCap  int
	useClock uint64

	pool *request.Pool // source of writeback requests; nil allocates

	// forwards and completed back the slices Access and Fill return.
	forwards  [2]*request.Request
	completed []*request.Request

	// Hits, Misses, MergedCount and Writebacks are aggregate counters.
	Hits, Misses, MergedCount, Writebacks uint64

	// cons backs the simdebug MSHR-conservation assertion; untouched in
	// release builds (see invariants.go).
	cons conservation
}

// NewSlice builds a slice of sliceBytes capacity.
func NewSlice(cfg config.Cache, sliceBytes int) *Slice {
	ways := cfg.Ways
	setBytes := cfg.LineBytes * ways
	sets := sliceBytes / setBytes
	if sets < 1 {
		sets = 1
	}
	return &Slice{
		cfg:      cfg,
		sets:     sets,
		ways:     ways,
		lineMask: ^uint64(cfg.LineBytes - 1),
		mshrCap:  cfg.MSHRs,
	}
}

// SetPool makes the slice draw its dirty-victim writeback requests from p
// (nil: allocate each one). Whoever retires them returns them to p.
func (s *Slice) SetPool(p *request.Pool) { s.pool = p }

// Sets returns the number of sets in the slice.
func (s *Slice) Sets() int { return s.sets }

// MSHRsInUse returns the number of outstanding fetches.
func (s *Slice) MSHRsInUse() int { return len(s.mshrs) - len(s.mshrFree) }

// Waiters returns how many requests are parked in MSHR merge lists. Each
// fetch's primary is not counted: it travels on to DRAM and is queued
// elsewhere.
func (s *Slice) Waiters() int {
	n := 0
	for i := range s.mshrs {
		n += s.mshrs[i].merged.Len()
	}
	return n
}

// UseClock returns the LRU clock: one tick per Access presented, whatever
// its outcome (tests).
func (s *Slice) UseClock() uint64 { return s.useClock }

// CreditRetries advances the LRU clock by n, standing in for n Access calls
// that would have returned Blocked. Access ticks the clock before it knows
// its outcome and Fill stamps a line without ticking, so the retries of a
// blocked request separate the stamps of the fills that happen meanwhile; a
// caller that knows a retry would be refused again and skips it must credit
// it here, before the next Fill or Access, to leave every stamp — and with
// it every later victim choice — where presenting the retries would have.
func (s *Slice) CreditRetries(n uint64) { s.useClock += n }

func (s *Slice) lineAddr(addr uint64) uint64 { return addr & s.lineMask }

// materialize allocates the line array, every line invalid, and room for
// mshrCap fetch records on the first request presented to the slice.
// Before it the slice holds no line, as after it, so when it happens
// changes no outcome.
func (s *Slice) materialize() {
	s.lines = make([]line, s.sets*s.ways)
	s.mshrs = make([]mshr, 0, s.mshrCap)
	s.mshrFree = make([]int32, 0, s.mshrCap)
}

// set returns the ways of the set lineAddr maps to.
func (s *Slice) set(lineAddr uint64) []line {
	i := int((lineAddr/uint64(s.cfg.LineBytes))%uint64(s.sets)) * s.ways
	return s.lines[i : i+s.ways]
}

func (s *Slice) find(lineAddr uint64) *line {
	set := s.set(lineAddr)
	for i := range set {
		if k := set[i].key; k&^lineFlags == lineAddr && k&(lineValid|linePending) != 0 {
			return &set[i]
		}
	}
	return nil
}

// planMiss decides a miss on set, the one statement of when the slice
// refuses a request it does not hold: with the MSHRs exhausted, with every
// way of the set pending, or without room downstream for the fetch and,
// when the victim is dirty, its writeback (ok false). Otherwise it returns
// the way to replace — the first invalid way, else the least recently used
// valid one (the lowest way on a tie) — and whether evicting it writes
// back. It changes nothing.
func (s *Slice) planMiss(set []line, downstreamSpace int) (victim int, evictDirty, ok bool) {
	if s.MSHRsInUse() >= s.mshrCap {
		return -1, false, false
	}
	victim = -1
	for i := range set {
		if set[i].pending() {
			continue
		}
		if !set[i].valid() {
			victim = i
			break
		}
		if victim < 0 || set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	if victim < 0 {
		return -1, false, false // whole set pending
	}
	need := 1
	evictDirty = set[victim].valid() && set[victim].dirty()
	if evictDirty {
		need = 2
	}
	return victim, evictDirty, downstreamSpace >= need
}

// allocMSHR takes an idle fetch record, growing the table within its
// capacity (the caller has checked MSHRsInUse() < mshrCap).
func (s *Slice) allocMSHR() int32 {
	if n := len(s.mshrFree); n > 0 {
		i := s.mshrFree[n-1]
		s.mshrFree = s.mshrFree[:n-1]
		return i
	}
	s.mshrs = append(s.mshrs, mshr{})
	return int32(len(s.mshrs) - 1)
}

// Access presents a MEM request to the slice. downstreamSpace is the free
// capacity of the L2->DRAM queue's MEM virtual channel; a miss needs one
// slot for the fetch and, when it evicts a dirty victim, a second for the
// writeback. On Miss, forwards holds the requests to push downstream (the
// original request first, then an optional synthetic writeback); it is
// scratch storage, valid until the next Access.
func (s *Slice) Access(r *request.Request, downstreamSpace int) (res AccessResult, forwards []*request.Request) {
	if r.Kind == request.PIMOp {
		panic("cache: PIM request presented to L2 slice")
	}
	if s.lines == nil {
		s.materialize() //pimlint:coldpath — once per slice, on its first request
	}
	la := s.lineAddr(r.Addr)
	s.useClock++

	if ln := s.find(la); ln != nil {
		if r.Kind == request.MemWrite {
			ln.key |= lineDirty // now on a hit, from the fill on a merge
		}
		if ln.valid() {
			ln.stamp = s.useClock
			s.Hits++
			return Hit, nil
		}
		// Pending: merge into the MSHR.
		m := &s.mshrs[ln.mshr()]
		r.AssertLive("cache: MSHR merge")
		m.primary.AssertLive("cache: MSHR merge target")
		m.merged.Push(r)
		s.MergedCount++
		if invariant.Enabled {
			s.cons.merged++
			s.checkInvariants() //pimlint:coldpath — simdebug builds only
		}
		return Merged, nil
	}

	// Miss path.
	set := s.set(la)
	victim, evictDirty, ok := s.planMiss(set, downstreamSpace)
	if !ok {
		return Blocked, nil
	}
	// The primary fetch goes downstream as a read regardless of the
	// request kind (write-allocate fetches the line first).
	s.forwards[0] = r
	forwards = s.forwards[:1]
	if evictDirty {
		wb := s.pool.Get()
		wb.Kind = request.MemWrite
		wb.Addr = set[victim].tag()
		wb.SM = r.SM
		wb.App = r.App
		wb.Synthetic = true
		s.forwards[1] = wb
		forwards = s.forwards[:2]
		s.Writebacks++
	}
	mi := s.allocMSHR()
	m := &s.mshrs[mi]
	m.primary = r
	k := la | linePending
	if r.Kind == request.MemWrite {
		k |= lineDirty
	}
	set[victim] = line{key: k, stamp: uint64(mi)}
	s.Misses++
	if invariant.Enabled {
		s.cons.fetches++
		s.checkInvariants() //pimlint:coldpath — simdebug builds only
	}
	return Miss, forwards
}

// Fill completes the fetch for the primary request r: the line becomes
// valid (dirty if any merged store touched it) and every request that
// waited on the MSHR — the primary plus merges — is returned for response
// delivery, in scratch storage valid until the next Fill. Fill panics if
// r does not correspond to an outstanding fetch.
func (s *Slice) Fill(r *request.Request) (completed []*request.Request) {
	var ln *line
	if s.lines != nil { // an untouched slice has no fetch to fill
		ln = s.find(s.lineAddr(r.Addr))
	}
	if ln == nil || !ln.pending() || s.mshrs[ln.mshr()].primary != r {
		panic(fmt.Sprintf("cache: fill for unknown fetch %v", r)) //pimlint:coldpath
	}
	mi := ln.mshr()
	m := &s.mshrs[mi]
	ln.key = ln.key&^linePending | lineValid
	ln.stamp = s.useClock
	s.completed = s.completed[:0]
	s.completed = append(s.completed, m.primary)
	// Popping every waiter leaves the record with nothing in it: the
	// waiters are about to be released by the caller, and a later fetch
	// reusing the record must not see them.
	for w := m.merged.Pop(); w != nil; w = m.merged.Pop() {
		s.completed = append(s.completed, w)
	}
	m.primary = nil
	s.mshrFree = append(s.mshrFree, mi)
	if invariant.Enabled {
		s.cons.fills++
		s.cons.released += uint64(len(s.completed) - 1)
		s.checkInvariants() //pimlint:coldpath — simdebug builds only
	}
	return s.completed
}
