package memctrl

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
)

// These tests pin the controller's NextEvent contract in isolation:
//
//  1. Lower bound: NextEvent(now) > now, always.
//  2. Skip safety: ticking only at NextEvent cycles (plus enqueue wakes,
//     exactly as the event engine does) leaves every observable —
//     statistics, queue lengths, completion order and timing — bit-
//     identical to ticking every cycle. Equality of the per-cycle twin
//     and the event-gated twin is precisely the statement that ticking
//     any cycle strictly before NextEvent is a no-op on controller state.
//
//  3. One answer: the issue deadline a quiet Tick leaves behind, the one
//     NextEvent keeps from its own scan, and a scan from scratch agree —
//     asked after a Tick, and after an Enqueue with no Tick since (the
//     event that must invalidate what the last Tick left).
//
// The throttle variant regression-pins the fuzzer-found miss where a
// DesiredMode mismatch inside an upcoming throttle window returned the
// window end, sleeping past an in-flight completion.

type arrival struct {
	pim   bool
	bank  int
	row   uint32
	col   uint32
	write bool
	block int
	entry int
}

func (a arrival) make() *request.Request {
	if a.pim {
		return pimReq(0, a.row, a.block, a.entry, request.PIMLoad)
	}
	return memReq(0, a.bank, a.row, a.col, a.write)
}

// buildScript scatters MEM arrivals and ordered PIM blocks over n cycles.
func buildScript(n uint64, banks int, seed int64) map[uint64][]arrival {
	rng := rand.New(rand.NewSource(seed))
	script := make(map[uint64][]arrival)
	pimIdx := 0
	for now := uint64(1); now < n; now++ {
		if rng.Float64() < 0.03 {
			script[now] = append(script[now], arrival{
				bank:  rng.Intn(banks),
				row:   uint32(rng.Intn(24)),
				col:   uint32(rng.Intn(64)),
				write: rng.Float64() < 0.3,
			})
		}
		if rng.Float64() < 0.004 {
			// One full PIM block: 8 entries, sequential block numbers
			// (lockstep execution requires in-order blocks).
			blk := pimIdx / 8 * 8
			for k := 0; k < 8; k++ {
				script[now] = append(script[now], arrival{
					pim: true, row: uint32(9 + (pimIdx/8)%16),
					block: blk / 8, entry: pimIdx % 8,
				})
				pimIdx++
			}
		}
	}
	return script
}

// askNextEvent asks c.NextEvent(now) the three ways it can be answered —
// from whatever the last Tick or Enqueue left, again (now certainly from
// the kept deadline), and with the kept deadline dropped — and requires
// one answer, strictly after now.
func askNextEvent(t *testing.T, c *Controller, now uint64) uint64 {
	t.Helper()
	next := c.NextEvent(now)
	if next <= now {
		t.Fatalf("NextEvent(%d) = %d: not strictly after now", now, next)
	}
	if again := c.NextEvent(now); again != next {
		t.Fatalf("NextEvent(%d) = %d, asked again %d", now, next, again)
	}
	c.issueKnown = false
	if fresh := c.NextEvent(now); fresh != next {
		t.Fatalf("NextEvent(%d) = %d from the kept issue deadline, %d from a fresh scan", now, next, fresh)
	}
	return next
}

func runNextEventEquivalence(t *testing.T, fs faults.Schedule, seed int64) {
	t.Helper()
	const n = 40_000
	cfg := config.Paper()
	script := buildScript(n, cfg.Memory.Banks, seed)

	stA, stB := &stats.Channel{}, &stats.Channel{}
	doneA, doneB := &captured{}, &captured{}
	a := New(0, cfg, sched.NewFRFCFS(), stA, doneA.fn)
	b := New(0, cfg, sched.NewFRFCFS(), stB, doneB.fn)
	if fs != (faults.Schedule{}) {
		a.SetFaults(faults.NewInjector(fs, 1, 0))
		b.SetFaults(faults.NewInjector(fs, 1, 0))
	}

	bNext := uint64(0)
	for now := uint64(1); now < n; now++ {
		wake := false
		for _, spec := range script[now] {
			ra, rb := spec.make(), spec.make()
			rb.ID = ra.ID // the two streams share IDs for comparison
			ca, cb := a.CanAccept(ra.Kind), b.CanAccept(rb.Kind)
			if ca != cb {
				t.Fatalf("cycle %d: CanAccept diverged: per-cycle %v, event %v", now, ca, cb)
			}
			if !ca {
				continue
			}
			a.Enqueue(ra)
			b.SyncTo(now - 1) // the event engine closes accounting before stamping arrivals
			b.Enqueue(rb)
			askNextEvent(t, b, now-1) // no Tick since the arrival
			wake = true
		}
		a.Tick(now)
		if wake || bNext <= now {
			b.Tick(now)
			bNext = askNextEvent(t, b, now)
		}
	}
	a.SyncStats(n - 1)
	b.SyncStats(n - 1)
	if stA.ActiveCycles == 0 || stA.BankBusySum <= stA.ActiveCycles {
		t.Errorf("no bank-level parallelism published: active=%d busySum=%d", stA.ActiveCycles, stA.BankBusySum)
	}

	if !reflect.DeepEqual(stA, stB) {
		t.Errorf("statistics diverged:\n per-cycle %+v\n event     %+v", stA, stB)
	}
	am, ap := a.QueueLens()
	bm, bp := b.QueueLens()
	if am != bm || ap != bp {
		t.Errorf("queue lengths diverged: per-cycle (%d,%d), event (%d,%d)", am, ap, bm, bp)
	}
	if len(doneA.reqs) != len(doneB.reqs) {
		t.Fatalf("completion counts diverged: per-cycle %d, event %d", len(doneA.reqs), len(doneB.reqs))
	}
	for i := range doneA.reqs {
		if doneA.reqs[i].ID != doneB.reqs[i].ID || doneA.times[i] != doneB.times[i] {
			t.Fatalf("completion %d diverged: per-cycle req#%d@%d, event req#%d@%d",
				i, doneA.reqs[i].ID, doneA.times[i], doneB.reqs[i].ID, doneB.times[i])
		}
	}
}

func TestNextEventEquivalenceClean(t *testing.T) {
	runNextEventEquivalence(t, faults.Schedule{}, 1)
}

func TestNextEventEquivalenceThrottled(t *testing.T) {
	// Windows short enough that several mode switches land inside or
	// adjacent to one — the configuration class the fuzzer's
	// counterexample came from.
	runNextEventEquivalence(t, faults.Schedule{
		Seed: 7, ThrottlePeriod: 3_000, ThrottleWindow: 400,
	}, 2)
}
