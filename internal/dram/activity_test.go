package dram

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/stats"
)

// TestActivityMatchesReferenceLoop is the equivalence proof of the
// command-time activity accounting: over random legal command streams that
// reach every site a busy window moves (ACT, PRE, RD/WR with and without
// auto-precharge and ECC retries, broadcast PRE/ACT, the lockstep op under
// both row-buffer organisations, refresh), the statistics PublishActivity
// writes at random cycles must equal what the reference loop — activityIn,
// one cycle at a time before that cycle's command, exactly what the
// channel's per-cycle Tick used to do — has counted so far.
func TestActivityMatchesReferenceLoop(t *testing.T) {
	paper := config.Paper()
	dual := paper
	dual.PIM.DualRowBuffer = true
	hard := paper
	hard.Memory.Page = config.PageClosed
	hard.Memory.Timing.TREFI = 1900
	hard.Memory.Timing.TRFC = 130
	cases := []struct {
		name   string
		cfg    config.Config
		faults bool
	}{
		{"paper", paper, false},
		{"dual-row-buffer", dual, false},
		{"closed-page/refresh/ecc-retries", hard, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var st stats.Channel
			ch := NewChannel(c.cfg.Memory, c.cfg.PIM, &st)
			if c.faults {
				ch.SetFaults(faults.NewInjector(faults.Schedule{Seed: 3, DRAMRetryProb: 0.05, DRAMRetryCycles: 12}, 1, 0), 0)
			}
			rng := rand.New(rand.NewSource(11))
			var refActive, refBusy uint64
			publishes := 0
			check := func(now uint64) {
				publishes++
				ch.PublishActivity(now)
				if st.ActiveCycles != refActive || st.BankBusySum != refBusy {
					t.Fatalf("cycle %d: published active=%d busySum=%d, reference loop active=%d busySum=%d",
						now, st.ActiveCycles, st.BankBusySum, refActive, refBusy)
				}
			}
			randomCommands(ch, rng, 30_000,
				func(now uint64) {
					active, busySum := ch.activityIn(now, now)
					refActive += active
					refBusy += busySum
					if rng.Intn(16) == 0 {
						check(now)
					}
				},
				func(now, _ uint64) {
					// A command at now occupies its banks from now+1:
					// cycle now reads the same after it as before.
					if rng.Intn(4) == 0 {
						check(now)
					}
				})
			if publishes == 0 || refBusy <= refActive {
				t.Fatalf("vacuous run: %d publishes, active=%d busySum=%d", publishes, refActive, refBusy)
			}
			if c.faults && st.Refreshes == 0 {
				t.Error("no refresh issued")
			}
		})
	}
}

// TestLockstepCreditMatchesReferenceLoop pins both ways a lockstep op
// credits the activity figures: at once, in closed form, when every busy
// window has ended (the steady case the random streams above reach), and
// bank by bank through occupy when one has not — which only the
// dual-row-buffer extension reaches, a MEM auto-precharge keeping its bank
// busy while the PIM buffer's row is open.
func TestLockstepCreditMatchesReferenceLoop(t *testing.T) {
	cfg := config.Paper()
	cfg.PIM.DualRowBuffer = true
	cfg.Memory.Page = config.PageClosed
	var st stats.Channel
	ch := NewChannel(cfg.Memory, cfg.PIM, &st)
	var now, refActive, refBusy uint64
	// at advances to the first later cycle where legal holds, counting every
	// cycle on the reference loop before its command.
	at := func(legal func() bool) {
		for {
			now++
			active, busySum := ch.activityIn(now, now)
			refActive += active
			refBusy += busySum
			if legal() {
				return
			}
		}
	}
	at(func() bool { return ch.CanPIMActivateAll(now) })
	ch.PIMActivateAll(1, now)
	at(func() bool { return ch.CanPIMOp(1, now) })
	if ch.busyMax > now+1 {
		t.Fatal("setup: a window is open at the first op")
	}
	ch.PIMOp(1, true, now)
	at(func() bool { return ch.CanActivate(0, now) })
	ch.Activate(0, 5, now)
	at(func() bool { return ch.CanColumn(0, 5, true, now) })
	ch.ColumnAP(0, 5, true, now)
	at(func() bool { return ch.CanPIMOp(1, now) })
	if ch.banks[0].busyUntil <= now+1 {
		t.Fatal("setup: bank 0 is idle at the second op")
	}
	ch.PIMOp(1, true, now)
	at(func() bool { return now > ch.busyMax })
	ch.PublishActivity(now)
	if st.ActiveCycles != refActive || st.BankBusySum != refBusy {
		t.Fatalf("published active=%d busySum=%d, reference loop active=%d busySum=%d",
			st.ActiveCycles, st.BankBusySum, refActive, refBusy)
	}
}

// refPIMOpAt is NextPIMOpAt with the bank walk done on every call, as the
// channel answered before it kept the walk per row epoch.
func refPIMOpAt(c *Channel, row uint32) uint64 {
	at := c.pimBusyUntil
	if c.pim.DualRowBuffer {
		if !c.dualPIMOpen || c.dualPIMRow != row {
			return never
		}
		return max(at, c.dualPIMColReady)
	}
	for i := range c.banks {
		b := &c.banks[i]
		if b.state != Open || b.openRow != row {
			return never
		}
		at = max(at, b.colReadyAt)
	}
	return at
}

// TestPIMOpAtMatchesBankWalk is the equivalence proof of the kept lockstep
// walk: over the same random legal command streams as the activity test —
// every command that opens, closes or re-times a row, broadcast and
// refresh precharges included — NextPIMOpAt must equal the bank walk done
// from scratch, asked every cycle for the stream's lockstep row (so the
// kept answer is reused across commands that do and do not move the row
// epoch) and now and then for a random row.
func TestPIMOpAtMatchesBankWalk(t *testing.T) {
	paper := config.Paper()
	dual := paper
	dual.PIM.DualRowBuffer = true
	hard := paper
	hard.Memory.Page = config.PageClosed
	hard.Memory.Timing.TREFI = 1900
	hard.Memory.Timing.TRFC = 130
	cases := []struct {
		name   string
		cfg    config.Config
		faults bool
	}{
		{"paper", paper, false},
		{"dual-row-buffer", dual, false},
		{"closed-page/refresh/ecc-retries", hard, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var st stats.Channel
			ch := NewChannel(c.cfg.Memory, c.cfg.PIM, &st)
			if c.faults {
				ch.SetFaults(faults.NewInjector(faults.Schedule{Seed: 3, DRAMRetryProb: 0.05, DRAMRetryCycles: 12}, 1, 0), 0)
			}
			rng := rand.New(rand.NewSource(13))
			var open, kept int
			ask := func(now uint64, row uint32) {
				if w := ch.lockstep; w.epoch == ch.rowEpoch && w.row == row {
					kept++
				}
				got, want := ch.NextPIMOpAt(row), refPIMOpAt(ch, row)
				if got != want {
					t.Fatalf("cycle %d: NextPIMOpAt(%d) = %d, the bank walk says %d", now, row, got, want)
				}
				if want != never {
					open++
				}
			}
			lockstepRows := [8]uint32{0, 1, 2, 3, 4, 5, 6, 7}
			randomCommands(ch, rng, 30_000, func(now uint64) {
				ask(now, lockstepRows[now/64%8]) // the row randomCommands' PIM phases use
				if rng.Intn(16) == 0 {
					ask(now, uint32(rng.Intn(64)))
				}
			}, func(uint64, uint64) {})
			if st.PIMOps == 0 || open == 0 || (!c.cfg.PIM.DualRowBuffer && kept == 0) {
				t.Fatalf("vacuous run: %d PIM ops, %d answers with the row open, %d kept answers", st.PIMOps, open, kept)
			}
		})
	}
}

// TestActivityInvariantCatchesLostCredit is the mutation test for the
// simdebug shadow: a busy window that moves without its credit (one
// forgotten occupy) must fail the next publish in a simdebug build, and
// pass unnoticed in a release build, where the assertion is compiled out.
func TestActivityInvariantCatchesLostCredit(t *testing.T) {
	var st stats.Channel
	ch, tm := newTestChannel(&st)
	ch.Activate(0, 1, 1)
	ch.PublishActivity(2) // a healthy publish passes
	ch.banks[3].busyUntil = 2 + uint64(tm.TRCD)
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		ch.PublishActivity(4)
		return false
	}()
	if panicked != invariant.Enabled {
		t.Errorf("publish after an uncredited window panicked=%v, want %v", panicked, invariant.Enabled)
	}
}
