package dram

import "repro/internal/invariant"

// activityShadow is the debug-build twin of the activity sums: the same
// two statistics accumulated the way the channel did before occupy — by
// walking the banks over every cycle range in which no window moves.
// Ordinary fields, but only touched behind `if invariant.Enabled`.
type activityShadow struct {
	active, busySum uint64
	through         uint64 // last cycle the reference loop has covered
}

// activityIn is the reference accounting: the active cycles and the
// busy-bank sum of [from, to], assuming no command issues inside the range.
// Busy windows only ever end inside such a range, so a bank contributes the
// prefix of the range below its busyUntil and the count of active cycles is
// the longest of those prefixes. The simdebug shadow and the property test
// (TestActivityMatchesReferenceLoop) are its only callers.
func (c *Channel) activityIn(from, to uint64) (active, busySum uint64) {
	for i := range c.banks {
		// Busy at cycle t iff t < busyUntil.
		bu := min(c.banks[i].busyUntil, to+1)
		if bu <= from {
			continue // idle across the whole range
		}
		n := bu - from
		busySum += n
		active = max(active, n)
	}
	return active, busySum
}

// shadowSync brings the shadow up to cycle to on the current windows.
// occupy calls it before a window moves and checkActivity before it
// compares, so every range it walks is command-free.
func (c *Channel) shadowSync(to uint64) {
	if to <= c.shadow.through {
		return
	}
	active, busySum := c.activityIn(c.shadow.through+1, to)
	c.shadow.active += active
	c.shadow.busySum += busySum
	c.shadow.through = to
}

// checkActivity asserts that the closed-form statistics PublishActivity is
// about to write for cycles 1..through equal what the reference loop
// counted. A publish behind the shadow (statistics re-read at an earlier
// cycle) has no reference to compare with and is skipped.
func (c *Channel) checkActivity(through, active, busySum uint64) {
	c.shadowSync(through)
	if c.shadow.through != through {
		return
	}
	invariant.Assert(active == c.shadow.active && busySum == c.shadow.busySum,
		"dram: activity through cycle %d published as active=%d busySum=%d, the per-bank reference loop counted active=%d busySum=%d",
		through, active, busySum, c.shadow.active, c.shadow.busySum)
}
