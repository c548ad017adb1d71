package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/noc"
	"repro/internal/request"
)

// tinyL2System builds a co-execution System whose L2 slices are shrunk to
// four sets and two MSHRs and whose L1s are off, so the L2 intake spends
// most cycles refused — MSHR-full, set pending, or behind a full L2->DRAM
// queue — with fills landing while it waits, and launches its kernels as
// RunContext does.
func tinyL2System(t *testing.T, vc config.VCMode, tick bool) *System {
	t.Helper()
	cfg := testCfg()
	cfg.NoC.Mode = vc
	cfg.Cache.L1Bytes = 0
	cfg.Cache.MSHRs = 2
	cfg.Cache.TotalBytes = cfg.Memory.Channels * cfg.Cache.LineBytes * cfg.Cache.Ways * 4
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, core.Factory("f3fs", cfg.Sched), []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.05),
		pimDesc(t, "P1", pimSMs, 0.05),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tick {
		sys.useTickLoop()
	}
	for _, k := range sys.kernels {
		k.Start(0)
	}
	return sys
}

// TestParkedIntakeKeepsLRUClock runs the every-cycle oracle and the parking
// schedule side by side and compares every L2 slice's LRU clock (plus what
// a still-parked channel owes it) at every cycle the parking schedule lands
// on. The result digests cannot see a lost
// credit (TestCreditedRetriesKeepTheVictim in internal/cache builds the
// state in which it would change a victim); the clock itself can: delete
// the CreditRetries call in unpark and the first fill that lands on a
// parked channel fails this test. The run must take that path — fills into
// slices whose channel is parked on a refused MEM request — to count.
func TestParkedIntakeKeepsLRUClock(t *testing.T) {
	for _, vc := range []config.VCMode{config.VC1, config.VC2} {
		oracle, parked := tinyL2System(t, vc, true), tinyL2System(t, vc, false)
		fillsWhileParked := 0
		inUse := make([]int, len(parked.l2))
		for !parked.allFinished() && parked.gpuCycle < 400_000 {
			for ch, l2 := range parked.l2 {
				inUse[ch] = -1
				if p := parked.intake[ch]; p.parked && p.retries > 0 {
					inUse[ch] = l2.MSHRsInUse()
				}
			}
			parked.advance()
			for oracle.gpuCycle < parked.gpuCycle {
				oracle.advance()
			}
			for ch, l2 := range parked.l2 {
				if l2.MSHRsInUse() < inUse[ch] {
					fillsWhileParked++
				}
				// A parked channel owes its slice the retries of the
				// visits skipped so far (through the cycle just run).
				got := l2.UseClock()
				if p := parked.intake[ch]; p.parked {
					got += p.retries * (parked.gpuCycle - 1 - p.since)
				}
				if want := oracle.l2[ch].UseClock(); got != want {
					t.Fatalf("%v: GPU cycle %d: channel %d's LRU clock reads %d on the parking schedule, %d on the oracle",
						vc, parked.gpuCycle, ch, got, want)
				}
			}
		}
		if !parked.allFinished() || !oracle.allFinished() {
			t.Errorf("%v: kernels unfinished at GPU cycle %d", vc, parked.gpuCycle)
		}
		for ch, l2 := range parked.l2 {
			o := oracle.l2[ch]
			if l2.Hits != o.Hits || l2.Misses != o.Misses || l2.MergedCount != o.MergedCount || l2.Writebacks != o.Writebacks {
				t.Errorf("%v: channel %d L2 counters diverged: parked %d/%d/%d/%d, oracle %d/%d/%d/%d", vc, ch,
					l2.Hits, l2.Misses, l2.MergedCount, l2.Writebacks, o.Hits, o.Misses, o.MergedCount, o.Writebacks)
			}
		}
		if fillsWhileParked == 0 {
			t.Errorf("%v: no fill landed on a channel parked on a refused MEM request; the test is vacuous", vc)
		}
		t.Logf("%v: %d GPU cycles, %d fills into parked channels", vc, parked.gpuCycle, fillsWhileParked)
	}
}

// TestInvariantCatchesMissedIntakeWake is the mutation test for the parked
// intake's simdebug probe: room appears downstream of a channel parked on a
// PIM op and the wake that should follow is lost (the queue is popped behind
// the sim's back), so the next visit finds a parked channel whose head can
// move. A simdebug build must fail there; a release build skips the visit.
func TestInvariantCatchesMissedIntakeWake(t *testing.T) {
	// A PIM kernel alone fills every queue down to the controllers.
	cfg := testCfg()
	_, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, core.Factory("f3fs", cfg.Sched), []KernelDesc{pimDesc(t, "P1", pimSMs, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sys.kernels[0].Start(0)
	stuck := -1
	for stuck < 0 && sys.gpuCycle < 100_000 {
		sys.advance()
		for ch, p := range sys.intake {
			if head := p.heads[noc.VCMem]; p.parked && head.Kind == request.PIMOp && !sys.l2dram[ch].CanPush(request.PIMOp) {
				stuck = ch
			}
		}
	}
	if stuck < 0 {
		t.Fatal("no channel parked on a PIM op behind a full L2->DRAM queue")
	}
	sys.l2dram[stuck].Pop(noc.VCMem) // drainToMCs' pop, without its unpark
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		sys.drainNoCOutputs()
		return false
	}()
	if panicked != invariant.Enabled {
		t.Errorf("visit to a parked channel that can move panicked=%v, want %v", panicked, invariant.Enabled)
	}
}

// BenchmarkDrainNoCBlocked measures one drainNoCOutputs pass over a system
// in which nothing can move: every channel's L2 has its MSHRs in use and a
// MEM request that misses at the head of its interconnect->L2 queue — the
// state 94.5 % of the coexec_saturated workload's L2 accesses find.
func BenchmarkDrainNoCBlocked(b *testing.B) {
	cfg := testCfg()
	gpu, err := workloadGPU("G8")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(cfg, core.Factory("f3fs", cfg.Sched), []KernelDesc{{GPU: gpu, SMs: SomeSMs(cfg, cfg.GPU.NumSMs), Scale: 1}})
	if err != nil {
		b.Fatal(err)
	}
	line := uint64(cfg.Cache.LineBytes)
	for ch, l2 := range sys.l2 {
		next := uint64(0)
		miss := func() *request.Request {
			next++
			return &request.Request{Kind: request.MemRead, Addr: next * line, Channel: ch}
		}
		for l2.MSHRsInUse() < cfg.Cache.MSHRs {
			if res, _ := l2.Access(miss(), 2); res != cache.Miss {
				b.Fatalf("channel %d: filling the MSHRs: access = %v", ch, res)
			}
		}
		if !sys.network.Output(ch).Push(miss()) {
			b.Fatalf("channel %d: output queue refused the head", ch)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.drainNoCOutputs()
	}
	for ch := range sys.l2 {
		if sys.network.Output(ch).Len() != 1 {
			b.Fatalf("channel %d: the blocked head moved", ch)
		}
	}
}
