package gpu

import (
	"testing"

	"repro/internal/request"
)

// TestNextEventLowerBoundAndSkipEquivalence pins the kernel's NextEvent
// contract: NextEvent(now) > now at every reachable state, and a kernel
// ticked only at NextEvent cycles plus the wakes of completions that free a
// cap-parked slot (exactly the event engine's protocol; every other
// completion wakes nothing) injects the identical request stream with
// identical counters to a twin ticked every cycle. The final forced tick
// also pins the lazy issue-clock sync: after both twins tick at the same
// cycle, per-slot state — including nextIssue, which the event twin
// catches up in closed form — must be equal, i.e. ticking any cycle
// strictly before NextEvent (for a capped slot: any cycle before the
// completion wake) is a no-op on observable slot state.
func TestNextEventLowerBoundAndSkipEquivalence(t *testing.T) {
	const (
		slots   = 4
		perSlot = 60
		latency = 23
		horizon = 5_000
	)
	params := IssueParams{Interval: 7, PerSlot: 2, MaxOutstanding: 3}

	type twin struct {
		k        *Kernel
		injected []uint64
		done     map[uint64][]*request.Request // completion calendar
	}
	mk := func() *twin {
		tw := &twin{done: make(map[uint64][]*request.Request)}
		gen := &scriptGen{slots: slots, perSlot: perSlot}
		tw.k = NewKernel(0, "prop", gen, []int{0, 1, 2, 3}, params, 1)
		tw.k.Start(0)
		return tw
	}
	a, b := mk(), mk()

	// Deterministic backpressure as a function of the cycle alone, so
	// both twins see the same environment at any cycle they act in.
	denied := func(now uint64) bool { return (now*2654435761)%11 < 3 }
	inject := func(tw *twin, now uint64) InjectFunc {
		return func(sm int, r *request.Request) bool {
			if denied(now) {
				return false
			}
			tw.injected = append(tw.injected, r.ID)
			tw.done[now+latency] = append(tw.done[now+latency], r)
			return true
		}
	}

	bNext := uint64(0)
	wakes, quiet := 0, 0
	for now := uint64(0); now < horizon; now++ {
		// Completions are delivered before the kernel loop each cycle,
		// matching the simulator; a delivery wakes the event twin only when
		// it frees a cap-parked slot.
		wake := false
		for _, r := range a.done[now] {
			a.k.OnComplete(r, now)
		}
		for _, r := range b.done[now] {
			if b.k.CapParked(r.SM) {
				wake = true
				wakes++
			} else {
				quiet++
			}
			b.k.OnComplete(r, now)
		}
		delete(a.done, now)
		delete(b.done, now)

		a.k.Tick(now, inject(a, now))
		if wake || bNext <= now {
			b.k.Tick(now, inject(b, now))
			bNext = b.k.NextEvent(now)
			if bNext <= now {
				t.Fatalf("NextEvent(%d) = %d, want > now", now, bNext)
			}
		}
	}

	// Force both twins to tick at the same final cycle: the event twin's
	// lazy grid sync must leave nextIssue bit-identical to the per-cycle
	// twin's, even for slots it skipped while capped.
	final := uint64(horizon)
	a.k.Tick(final, inject(a, final))
	b.k.Tick(final, inject(b, final))

	if a.k.Issued() != b.k.Issued() || a.k.Completed() != b.k.Completed() ||
		a.k.StallCycles != b.k.StallCycles || a.k.Outstanding() != b.k.Outstanding() {
		t.Errorf("counters diverged: per-cycle issued=%d completed=%d stalls=%d outstanding=%d, event issued=%d completed=%d stalls=%d outstanding=%d",
			a.k.Issued(), a.k.Completed(), a.k.StallCycles, a.k.Outstanding(),
			b.k.Issued(), b.k.Completed(), b.k.StallCycles, b.k.Outstanding())
	}
	if len(a.injected) != len(b.injected) {
		t.Fatalf("injection streams diverged in length: %d vs %d", len(a.injected), len(b.injected))
	}
	for i := range a.injected {
		if a.injected[i] != b.injected[i] {
			t.Fatalf("injection %d diverged: per-cycle req#%d, event req#%d", i, a.injected[i], b.injected[i])
		}
	}
	for i := range a.k.slots {
		sa, sb := a.k.slots[i], b.k.slots[i]
		if sa.nextIssue != sb.nextIssue || sa.outstanding != sb.outstanding ||
			sa.exhausted != sb.exhausted || (sa.pending == nil) != (sb.pending == nil) {
			t.Errorf("slot %d diverged: per-cycle %+v, event %+v", i, sa, sb)
		}
	}
	if a.k.Issued() == 0 || wakes == 0 || quiet == 0 {
		t.Fatalf("walk issued %d, with %d waking and %d quiet completions; the property was not exercised", a.k.Issued(), wakes, quiet)
	}
}
