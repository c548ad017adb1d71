package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestNextEventLowerBoundAndSkipEquivalence pins the channel's NextEvent
// contract: NextEvent(now) > now at every state the walk reaches, and a
// channel ticked only at NextEvent cycles (with SyncActivity closing the
// skipped ranges, as the controller's accounting does) stays bit-identical
// to a twin ticked every cycle — i.e., ticking any cycle strictly before
// NextEvent is a no-op on channel state and statistics. At every state of
// the walk it also checks that SyncActivity is additive over a split of a
// command-free range, the property that makes Tick (its one-cycle case)
// and a skipped range interchangeable.
func TestNextEventLowerBoundAndSkipEquivalence(t *testing.T) {
	stA, stB := &stats.Channel{}, &stats.Channel{}
	a, _ := newTestChannel(stA)
	b, _ := newTestChannel(stB)

	rng := rand.New(rand.NewSource(42))
	banks := len(a.banks)
	now := uint64(1)
	prev := uint64(0)
	for step := 0; step < 4_000 && now < 1<<40; step++ {
		// Per-cycle twin ticks every cycle since the last command; the
		// event twin closes the same range in closed form and ticks once.
		for c := prev + 1; c <= now; c++ {
			a.Tick(c)
		}
		if now > prev+1 {
			b.SyncActivity(prev+1, now-1)
		}
		b.Tick(now)
		prev = now

		// Issue one random legal command on both channels.
		bank := rng.Intn(banks)
		row := uint32(rng.Intn(32))
		switch {
		case a.CanRefresh(now) && a.RefreshDue(now):
			a.Refresh(now)
			b.Refresh(now)
		case a.IsRowHit(bank, row) && a.CanColumn(bank, row, false, now):
			a.Column(bank, row, false, now)
			b.Column(bank, row, false, now)
		case a.CanActivate(bank, now):
			a.Activate(bank, row, now)
			b.Activate(bank, row, now)
		case a.CanPrecharge(bank, now):
			a.Precharge(bank, now)
			b.Precharge(bank, now)
		}

		next := a.NextEvent(now)
		if next <= now {
			t.Fatalf("step %d: NextEvent(%d) = %d, want > now", step, now, next)
		}
		if bn := b.NextEvent(now); bn != next {
			t.Fatalf("step %d: twins disagree on NextEvent(%d): %d vs %d", step, now, next, bn)
		}

		// Direct no-op check: when the next event is more than one cycle
		// out, ticking the in-between cycles must not change statistics.
		if next > now+1 {
			snap := *stA
			limit := next - 1
			if limit > now+16 {
				limit = now + 16
			}
			for c := now + 1; c <= limit; c++ {
				a.Tick(c)
			}
			if *stA != snap {
				t.Fatalf("step %d: ticking (%d,%d] changed stats: %+v -> %+v", step, now, limit, snap, *stA)
			}
		}

		// Additivity: with no command in (now, hi], accounting the range
		// at once equals accounting it in two pieces at any split point
		// (either piece may be empty).
		{
			snap := *stA
			hi := now + 1 + uint64(rng.Intn(80))
			mid := now + uint64(rng.Intn(int(hi-now)+1))
			a.SyncActivity(now+1, hi)
			whole := *stA
			*stA = snap
			a.SyncActivity(now+1, mid)
			a.SyncActivity(mid+1, hi)
			if *stA != whole {
				t.Fatalf("step %d: SyncActivity(%d,%d) gives %+v, split at %d gives %+v", step, now+1, hi, whole, mid, *stA)
			}
			*stA = snap
		}

		// Walk forward: sometimes to the event, sometimes a short hop
		// past busy cycles so the per-cycle accounting paths get hit.
		if next != ^uint64(0) && rng.Float64() < 0.7 {
			now = next
		} else {
			now += 1 + uint64(rng.Intn(12))
		}
	}

	if !reflect.DeepEqual(stA, stB) {
		t.Errorf("statistics diverged:\n per-cycle %+v\n event     %+v", stA, stB)
	}
	for i := 0; i < banks; i++ {
		sa, ra := a.State(i)
		sb, rb := b.State(i)
		if sa != sb || ra != rb {
			t.Errorf("bank %d state diverged: per-cycle (%v,%d), event (%v,%d)", i, sa, ra, sb, rb)
		}
	}
}
