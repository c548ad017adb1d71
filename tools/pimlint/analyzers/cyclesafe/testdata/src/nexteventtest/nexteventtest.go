// Package nexteventtest is analysistest fodder for the NextEvent half
// of cyclesafe: off-contract NextEvent signatures and narrowing
// conversions of returned cycles are flagged; the canonical
// `NextEvent(now uint64) uint64` shape and 64-bit uses are not.
package nexteventtest

type channel struct{}

// Canonical scheduler shape: fine.
func (channel) NextEvent(now uint64) uint64 { return now + 1 }

type narrowResult struct{}

func (narrowResult) NextEvent(now uint64) uint32 { return 0 } // want `NextEvent must return uint64, got uint32`

type multiResult struct{}

func (multiResult) NextEvent(now uint64) (uint64, bool) { return now + 1, true } // want `NextEvent must return exactly one uint64 cycle, got 2 results`

type narrowNow struct{}

func (narrowNow) NextEvent(now uint32) uint64 { return uint64(now) + 1 } // want `NextEvent must take the current cycle as uint64, got uint32`

// Interface declarations carry the same contract.
type scheduler interface {
	NextEvent(now uint64) uint64 // fine
}

type badScheduler interface {
	NextEvent(now uint64) int // want `NextEvent must return uint64, got int`
}

// A named 64-bit type still satisfies the contract through underlying.
type cycle uint64

type aliased struct{}

func (aliased) NextEvent(now uint64) cycle { return cycle(now) + 1 }

func use(ch channel, now uint64) {
	next := ch.NextEvent(now)
	_ = next
	_ = int64(ch.NextEvent(now))         // same width: fine
	_ = uint32(ch.NextEvent(now))        // want `narrowing conversion uint32\(\.\.\.\) truncates a NextEvent cycle`
	_ = int(ch.NextEvent(now) - now)     // want `narrowing conversion int\(\.\.\.\) truncates a NextEvent cycle`
	_ = uint16(now)                      // no NextEvent mentioned: not this analyzer's concern
	_ = float64(ch.NextEvent(now))       // not an integer target: fine
	if uint8(ch.NextEvent(now)%8) == 0 { // want `narrowing conversion uint8\(\.\.\.\) truncates a NextEvent cycle`
		_ = next
	}
}
