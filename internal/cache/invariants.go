package cache

import (
	"repro/internal/invariant"
	"repro/internal/request"
)

// Debug-build conservation counters. Ordinary fields, but every update and
// check sits behind `if invariant.Enabled`, so release builds never touch
// them.
type conservation struct {
	fetches  uint64 // MSHR records taken by a Miss
	fills    uint64 // records returned by Fill
	merged   uint64 // requests parked in a merge list by a Merged access
	released uint64 // merged requests Fill handed back
	checks   uint64 // checkInvariants calls, to pace the full line scan
}

// checkInvariants validates the slice's fetch bookkeeping after every
// access or fill that changed it (simdebug builds):
//
//   - MSHR conservation: records in use = fetches started - fetches
//     filled, never above the configured MSHR count — a record that is
//     taken and never filled (or filled twice) blocks the slice for good
//     or hands a recycled record to two lines;
//   - pending lines = records in use, each naming a record whose primary
//     fetches exactly that line (a walk over every line, so made on every
//     64th check and whenever the slice goes idle);
//   - merged waiters: requests merged - requests released = Waiters(), the
//     figure the sim's request-conservation check counts for the caches.
func (s *Slice) checkInvariants() {
	inUse := s.MSHRsInUse()
	invariant.Assert(uint64(inUse) == s.cons.fetches-s.cons.fills,
		"cache: %d MSHR records in use, but %d fetches started and %d filled",
		inUse, s.cons.fetches, s.cons.fills)
	invariant.Assert(inUse <= s.mshrCap, "cache: %d MSHR records in use over the bound %d", inUse, s.mshrCap)
	waiters := s.Waiters()
	invariant.Assert(uint64(waiters) == s.cons.merged-s.cons.released,
		"cache: %d merged waiters held, but %d merged and %d released",
		waiters, s.cons.merged, s.cons.released)
	if s.cons.checks++; s.cons.checks%64 != 0 && inUse != 0 {
		return
	}
	pending := 0
	for i := range s.lines {
		ln := &s.lines[i]
		if !ln.pending {
			continue
		}
		pending++
		invariant.Assert(!ln.valid && int(ln.mshr) < len(s.mshrs) && s.mshrs[ln.mshr].primary != nil &&
			s.lineAddr(s.mshrs[ln.mshr].primary.Addr) == ln.tag,
			"cache: pending line %#x names MSHR record %d, which does not fetch it", ln.tag, ln.mshr)
	}
	invariant.Assert(pending == inUse, "cache: %d pending lines but %d MSHR records in use", pending, inUse)
}

// WouldBlock reports, without touching the slice, whether Access(r,
// downstreamSpace) would return Blocked: the line is neither present nor
// being fetched, and planMiss refuses the miss. The sim's simdebug builds
// use it to re-derive the verdict of a parked intake every cycle.
func (s *Slice) WouldBlock(r *request.Request, downstreamSpace int) bool {
	la := s.lineAddr(r.Addr)
	if s.find(la) != nil {
		return false // a hit or a merge
	}
	_, _, ok := s.planMiss(s.set(la), downstreamSpace)
	return !ok
}
