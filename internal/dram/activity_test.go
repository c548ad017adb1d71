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
