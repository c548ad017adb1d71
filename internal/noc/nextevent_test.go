package noc

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/request"
)

// TestNextEventLowerBoundAndSkipEquivalence pins the network's NextEvent
// contract: NextEvent(now) > now; a crossbar that can grant nothing — empty,
// or holding flits whose outputs are all full — sleeps (Tick moves state
// only by granting, so ticking it is a no-op); and a twin ticked only when
// NextEvent, asked afresh each cycle, says a tick can matter delivers
// exactly what a twin ticked every cycle delivers, in the same order. The
// outputs are drained slower than the bursts arrive, so the twin sleeps
// through blocked stretches as well as empty ones.
func TestNextEventLowerBoundAndSkipEquivalence(t *testing.T) {
	cfg := smallCfg(config.VC2)
	a := New(cfg) // ticked every cycle, including empty and blocked ones
	b := New(cfg) // ticked only when NextEvent says a tick can matter

	if got := a.NextEvent(0); got != ^uint64(0) {
		t.Fatalf("empty network with no stall schedule: NextEvent = %d, want never", got)
	}

	// Identical injection scripts built from fresh request objects per
	// network (requests are mutable; twins must not share them).
	rng := rand.New(rand.NewSource(17))
	type shot struct {
		sm, ch int
		pim    bool
	}
	script := make(map[uint64][]shot)
	for now := uint64(0); now < 3_000; now++ {
		// Bursts aimed at two channels, separated by long idle gaps: the
		// burst fills those outputs and blocks the ports behind them, the
		// gap lets everything drain and the crossbar go idle.
		for k := 0; now%400 < 40 && k < 3; k++ {
			script[now] = append(script[now], shot{
				sm: rng.Intn(cfg.GPU.NumSMs), ch: rng.Intn(2),
				pim: rng.Float64() < 0.3,
			})
		}
	}
	mk := func(s shot) *request.Request {
		if s.pim {
			return pim(s.ch)
		}
		return mem(s.ch)
	}

	var popsA, popsB []uint64
	drain := func(n *Network, ch int, sink *[]uint64) {
		q := n.Output(ch)
		for _, vc := range q.ServeOrder() {
			if q.LenVC(vc) > 0 {
				*sink = append(*sink, q.Pop(vc).ID)
				q.Served(vc)
				return
			}
		}
	}

	ticksB, sleptBlocked := 0, 0
	for now := uint64(0); now < 3_200; now++ {
		for _, s := range script[now] {
			ra, rb := mk(s), mk(s)
			rb.ID = ra.ID // twins share IDs so pop order is comparable
			if okA, okB := a.Inject(s.sm, ra), b.Inject(s.sm, rb); okA != okB {
				t.Fatalf("cycle %d: Inject diverged: per-cycle %v, event %v", now, okA, okB)
			}
		}
		a.Tick()
		switch next := b.NextEvent(now); {
		case next <= now:
			t.Fatalf("NextEvent(%d) = %d, want > now", now, next)
		case next == now+1:
			b.Tick()
			ticksB++
		case next != ^uint64(0):
			t.Fatalf("NextEvent(%d) = %d, want now+1 or never", now, next)
		case b.InFlits() > 0:
			sleptBlocked++
		}
		// One flit per channel every fourth cycle: slower than a burst.
		if now%4 == 0 {
			for ch := 0; ch < cfg.Memory.Channels; ch++ {
				drain(a, ch, &popsA)
				drain(b, ch, &popsB)
			}
		}
	}

	if a.InFlits() != 0 || b.InFlits() != 0 {
		t.Fatalf("flits left in flight: per-cycle %d, event %d", a.InFlits(), b.InFlits())
	}
	if len(popsA) != len(popsB) {
		t.Fatalf("delivery counts diverged: per-cycle %d, event %d", len(popsA), len(popsB))
	}
	for i := range popsA {
		if popsA[i] != popsB[i] {
			t.Fatalf("delivery %d diverged: per-cycle req#%d, event req#%d", i, popsA[i], popsB[i])
		}
	}
	if len(popsA) == 0 || sleptBlocked == 0 || ticksB >= 1_600 {
		t.Fatalf("property not exercised: %d deliveries, %d cycles slept on buffered flits, %d of 3200 cycles ticked",
			len(popsA), sleptBlocked, ticksB)
	}
}

// TestNextEventStallScheduleForcesPerCycle pins the fault-stream
// alignment rule: with a link-stall probability the per-link RNG must
// draw every cycle, so NextEvent may never sleep even on an empty
// crossbar.
func TestNextEventStallScheduleForcesPerCycle(t *testing.T) {
	cfg := smallCfg(config.VC1)
	n := New(cfg)
	n.SetFaults(faults.NewInjector(faults.Schedule{
		Seed: 3, NoCStallProb: 0.01, NoCStallCycles: 8,
	}, cfg.Memory.Channels, cfg.Memory.Channels))

	for _, now := range []uint64{0, 1, 999, 1 << 33} {
		if got := n.NextEvent(now); got != now+1 {
			t.Fatalf("NextEvent(%d) = %d with active stall schedule, want now+1", now, got)
		}
	}
}
