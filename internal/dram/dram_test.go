package dram

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

func newTestChannel(st *stats.Channel) (*Channel, config.DRAMTiming) {
	cfg := config.Paper()
	return NewChannel(cfg.Memory, cfg.PIM, st), cfg.Memory.Timing
}

func TestActivateThenColumnRespectsTRCD(t *testing.T) {
	ch, tm := newTestChannel(nil)
	if !ch.CanActivate(0, 0) {
		t.Fatal("fresh bank refused ACT")
	}
	ch.Activate(0, 42, 0)
	if ch.CanColumn(0, 42, false, uint64(tm.TRCD)-1) {
		t.Error("column allowed before tRCD")
	}
	if !ch.CanColumn(0, 42, false, uint64(tm.TRCD)) {
		t.Error("column refused at tRCD")
	}
}

func TestColumnRequiresMatchingOpenRow(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.Activate(0, 42, 0)
	now := uint64(tm.TRCD)
	if ch.CanColumn(0, 43, false, now) {
		t.Error("column allowed to a different row")
	}
	if ch.CanColumn(1, 42, false, now) {
		t.Error("column allowed on a closed bank")
	}
}

func TestReadCompletionTime(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.Activate(0, 1, 0)
	now := uint64(tm.TRCD)
	done := ch.Column(0, 1, false, now)
	want := now + uint64(tm.TCL) + 1 // burst = BL/2 = 1 cycle
	if done != want {
		t.Errorf("read done at %d, want %d", done, want)
	}
}

func TestWriteCompletionIncludesRecovery(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.Activate(0, 1, 0)
	now := uint64(tm.TRCD)
	done := ch.Column(0, 1, true, now)
	want := now + uint64(tm.TWL) + 1 + uint64(tm.TWR)
	if done != want {
		t.Errorf("write done at %d, want %d (tWL+burst+tWR)", done, want)
	}
}

func TestPrechargeWindows(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.Activate(0, 1, 0)
	// tRAS gates precharge after activate.
	if ch.CanPrecharge(0, uint64(tm.TRAS)-1) {
		t.Error("PRE allowed before tRAS")
	}
	if !ch.CanPrecharge(0, uint64(tm.TRAS)) {
		t.Error("PRE refused at tRAS")
	}
	// A read pushes the precharge point to at least read + tRTP.
	rd := uint64(tm.TRCD)
	ch.Column(0, 1, false, rd)
	if !ch.CanPrecharge(0, uint64(tm.TRAS)) {
		t.Error("PRE refused after tRAS with tRTP satisfied")
	}
	ch2, _ := newTestChannel(nil)
	ch2.Activate(0, 1, 0)
	late := uint64(tm.TRAS)
	ch2.Column(0, 1, false, late) // read right at tRAS
	if ch2.CanPrecharge(0, late+uint64(tm.TRTP)-1) {
		t.Error("PRE allowed before read tRTP")
	}
	if !ch2.CanPrecharge(0, late+uint64(tm.TRTP)) {
		t.Error("PRE refused at read tRTP")
	}
}

func TestPrechargeActivateRespectsTRP(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.Activate(0, 1, 0)
	pre := uint64(tm.TRAS)
	ch.Precharge(0, pre)
	if ch.CanActivate(0, pre+uint64(tm.TRP)-1) {
		t.Error("ACT allowed before tRP")
	}
	if !ch.CanActivate(0, pre+uint64(tm.TRP)) {
		t.Error("ACT refused at tRP")
	}
}

func TestTRRDBetweenActivates(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.Activate(0, 1, 10)
	if ch.CanActivate(1, 10+uint64(tm.TRRD)-1) {
		t.Error("ACT on other bank allowed before tRRD")
	}
	if !ch.CanActivate(1, 10+uint64(tm.TRRD)) {
		t.Error("ACT on other bank refused at tRRD")
	}
}

func TestTCCDSameAndCrossBankGroup(t *testing.T) {
	ch, tm := newTestChannel(nil)
	// Banks 0 and 1 share a group (16 banks / 4 groups = 4 per group);
	// bank 4 is in the next group.
	ch.Activate(0, 1, 0)
	ch.Activate(1, 1, uint64(tm.TRRD))
	ch.Activate(4, 1, 2*uint64(tm.TRRD))
	start := uint64(tm.TRCD) + 2*uint64(tm.TRRD)
	ch.Column(0, 1, false, start)
	if ch.CanColumn(1, 1, false, start+uint64(tm.TCCDL)-1) {
		t.Error("same-group column allowed before tCCDl")
	}
	if !ch.CanColumn(4, 1, false, start+uint64(tm.TCCDS)) {
		t.Error("cross-group column refused at tCCDs")
	}
}

func TestDataBusConflictBetweenReadAndWrite(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.Activate(0, 1, 0)
	ch.Activate(4, 1, uint64(tm.TRRD))
	start := uint64(tm.TRCD) + uint64(tm.TRRD)
	// Read data occupies [start+tCL, start+tCL+1). A write issued at
	// start+tCCDs would put data at +tWL (2), well before the read's
	// slot frees: since write data would start earlier than the read
	// data ends... construct the reverse: write first, then read that
	// would collide.
	ch.Column(0, 1, true, start) // write: data at [start+2, start+3)
	early := start + uint64(tm.TCCDS)
	// A read at start+1: data at [start+1+12, ...) - no overlap. Try a
	// second write at start+tCCDs: data [start+1+2, start+1+3) overlaps
	// nothing? The bus frees at start+3; second write data starts at
	// start+3: OK. So check a colliding case: second write one cycle
	// after the first wants the bus at start+3 >= busBusyUntil start+3,
	// allowed. The only real collision: same-cycle issue is prevented
	// by tCCD. Verify the invariant directly instead: issuing back-to-
	// back writes keeps data bus slots disjoint.
	if !ch.CanColumn(4, 1, true, early) {
		t.Fatalf("cross-group write refused at %d", early)
	}
	done2 := ch.Column(4, 1, true, early)
	if done2 <= start+uint64(tm.TWL)+1 {
		t.Errorf("second write completed at %d, within first write's window", done2)
	}
}

func TestBroadcastPIMSequence(t *testing.T) {
	ch, tm := newTestChannel(nil)
	// Open a few banks on scattered rows (MEM state), then switch to
	// PIM: broadcast precharge must close everything.
	ch.Activate(0, 7, 0)
	ch.Activate(5, 9, uint64(tm.TRRD))
	now := uint64(tm.TRAS) + uint64(tm.TRRD)
	if !ch.CanPIMPrechargeAll(now) {
		t.Fatal("broadcast PRE refused after tRAS")
	}
	ch.PIMPrechargeAll(now)
	if ch.AnyBankOpen() {
		t.Fatal("banks open after broadcast PRE")
	}
	actAt := now + uint64(tm.TRP)
	if ch.CanPIMActivateAll(actAt - 1) {
		t.Error("broadcast ACT allowed before tRP")
	}
	if !ch.CanPIMActivateAll(actAt) {
		t.Fatal("broadcast ACT refused at tRP")
	}
	ch.PIMActivateAll(42, actAt)
	if !ch.PIMRowOpen(42) {
		t.Fatal("row 42 not open on all banks after broadcast ACT")
	}
	opAt := actAt + uint64(tm.TRCD)
	if ch.CanPIMOp(42, opAt-1) {
		t.Error("PIM op allowed before tRCD")
	}
	done := ch.PIMOp(42, false, opAt)
	if done != opAt+2 {
		t.Errorf("PIM op done at %d, want %d (OpCycles=2)", done, opAt+2)
	}
	// Lockstep ops serialize.
	if ch.CanPIMOp(42, opAt+1) {
		t.Error("second PIM op allowed during first")
	}
	if !ch.CanPIMOp(42, done) {
		t.Error("second PIM op refused after first completed")
	}
}

func TestPIMOpOccupiesAllBanks(t *testing.T) {
	ch, tm := newTestChannel(nil)
	ch.PIMActivateAll(1, 0)
	opAt := uint64(tm.TRCD)
	ch.PIMOp(1, false, opAt)
	if got := ch.BusyBanks(opAt); got != 16 {
		t.Errorf("busy banks during PIM op = %d, want 16 (all-bank lockstep)", got)
	}
}

func TestPostSwitchConflictAttribution(t *testing.T) {
	var st stats.Channel
	cfg := config.Paper()
	ch := NewChannel(cfg.Memory, cfg.PIM, &st)
	tm := cfg.Memory.Timing
	// MEM opens row 5 on bank 0, PIM then re-opens everything at row 9.
	ch.Activate(0, 5, 0)
	now := uint64(tm.TRAS)
	ch.PIMPrechargeAll(now)
	now += uint64(tm.TRP)
	ch.PIMActivateAll(9, now)
	// Back in MEM mode, a miss on bank 0 is a post-switch conflict.
	ch.NoteRowMiss(0)
	if st.PostSwitchConflicts != 1 {
		t.Errorf("post-switch conflicts = %d, want 1", st.PostSwitchConflicts)
	}
	// After MEM re-activates the bank itself, further misses are the
	// kernel's own conflicts.
	now += uint64(tm.TRAS)
	ch.PIMPrechargeAll(now)
	now += uint64(tm.TRP)
	ch.Activate(0, 5, now)
	ch.NoteRowMiss(0)
	if st.PostSwitchConflicts != 1 {
		t.Errorf("post-switch conflicts = %d after MEM ACT, want still 1", st.PostSwitchConflicts)
	}
	if st.RowMisses != 2 {
		t.Errorf("row misses = %d, want 2", st.RowMisses)
	}
}

func TestBLPAccounting(t *testing.T) {
	var st stats.Channel
	cfg := config.Paper()
	ch := NewChannel(cfg.Memory, cfg.PIM, &st)
	tm := cfg.Memory.Timing
	ch.Activate(0, 1, 0)
	ch.Activate(1, 1, uint64(tm.TRRD))
	// sample returns what one cycle adds to the published statistics.
	sample := func(cycle uint64) (active, busySum uint64) {
		ch.PublishActivity(cycle - 1)
		before := st
		ch.PublishActivity(cycle)
		return st.ActiveCycles - before.ActiveCycles, st.BankBusySum - before.BankBusySum
	}
	// During [tRRD, tRCD) both banks are activating -> busy.
	probe := uint64(tm.TRRD) + 1
	if active, busySum := sample(probe); active != 1 || busySum != 2 {
		t.Errorf("BLP sample: active=%d busySum=%d, want 1/2", active, busySum)
	}
	// Far in the future nothing is busy; no active-cycle sample.
	if active, _ := sample(10_000); active != 0 {
		t.Errorf("idle cycle counted as active: %d", active)
	}
	// In total: bank 0 is busy over [1, tRCD), bank 1 over (tRRD, tRRD+tRCD).
	if want := uint64(tm.TRRD + tm.TRCD - 1); st.ActiveCycles != want || st.BankBusySum != uint64(2*(tm.TRCD-1)) {
		t.Errorf("published active=%d busySum=%d, want %d/%d", st.ActiveCycles, st.BankBusySum, want, 2*(tm.TRCD-1))
	}
}

func TestIllegalCommandsPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func(ch *Channel)
	}{
		{"double ACT", func(ch *Channel) { ch.Activate(0, 1, 0); ch.Activate(0, 2, 100) }},
		{"PRE closed bank", func(ch *Channel) { ch.Precharge(0, 0) }},
		{"column closed bank", func(ch *Channel) { ch.Column(0, 1, false, 0) }},
		{"PIM op without rows", func(ch *Channel) { ch.PIMOp(1, false, 0) }},
		{"broadcast ACT on open banks", func(ch *Channel) { ch.Activate(0, 1, 0); ch.PIMActivateAll(2, 100) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ch, _ := newTestChannel(nil)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f(ch)
		})
	}
}

// randomCommands drives ch through steps cycles of a random but legal
// command stream, at most one command per cycle: per-bank ACT / PRE / RD /
// WR (auto-precharged when the page policy is closed) in one phase, the
// PIM broadcast precharge / activate / lockstep-op sequence in the other,
// and the precharge-all + REFab flow whenever a refresh is due. each runs
// at the top of every cycle, before that cycle's command; column after
// every column command.
func randomCommands(ch *Channel, rng *rand.Rand, steps int, each func(now uint64), column func(now, done uint64)) {
	banks := len(ch.banks)
	for step := 1; step <= steps; step++ {
		now := uint64(step)
		each(now)
		bank := rng.Intn(banks)
		row := uint32(rng.Intn(64))
		switch {
		case ch.RefreshDue(now):
			if ch.AnyBankOpen() {
				if ch.CanPrechargeAllBanks(now) {
					ch.RefreshPrechargeAll(now)
				}
			} else if ch.CanRefresh(now) {
				ch.Refresh(now)
			}
		case (now/512)%2 == 1: // PIM phase: one lockstep row per 64 cycles
			row = uint32(step / 64 % 8)
			switch {
			case ch.PIMRowOpen(row):
				if ch.CanPIMOp(row, now) {
					ch.PIMOp(row, true, now)
				}
			case ch.NeedsPIMPrecharge():
				if ch.CanPIMPrechargeAll(now) {
					ch.PIMPrechargeAll(now)
				}
			case ch.CanPIMActivateAll(now):
				ch.PIMActivateAll(row, now)
			}
		default:
			switch rng.Intn(3) {
			case 0:
				if ch.CanActivate(bank, now) {
					ch.Activate(bank, row, now)
				}
			case 1:
				if ch.CanPrecharge(bank, now) {
					ch.Precharge(bank, now)
				}
			case 2:
				if state, open := ch.State(bank); state == Open {
					write := rng.Intn(2) == 0
					if ch.CanColumn(bank, open, write, now) {
						var done uint64
						if ch.cfg.Page == config.PageClosed {
							done = ch.ColumnAP(bank, open, write, now)
						} else {
							done = ch.Column(bank, open, write, now)
						}
						column(now, done)
					}
				}
			}
		}
	}
}

// TestRandomizedSchedulerNeverViolatesInvariants drives the channel with a
// random but legal command stream and checks global invariants: commands
// only issue when their Can* gate allows, completions never travel back in
// time, and the busy-bank count never exceeds the bank count.
func TestRandomizedSchedulerNeverViolatesInvariants(t *testing.T) {
	cfg := config.Paper()
	var st stats.Channel
	ch := NewChannel(cfg.Memory, cfg.PIM, &st)
	randomCommands(ch, rand.New(rand.NewSource(7)), 20000,
		func(now uint64) {
			if busy := ch.BusyBanks(now); busy > cfg.Memory.Banks {
				t.Fatalf("busy banks %d > %d", busy, cfg.Memory.Banks)
			}
		},
		func(now, done uint64) {
			if done < now {
				t.Fatalf("completion %d before issue %d", done, now)
			}
		})
	if st.MemReads+st.MemWrites == 0 || st.PIMOps == 0 {
		t.Errorf("randomized run issued %d column commands and %d PIM ops, want both", st.MemReads+st.MemWrites, st.PIMOps)
	}
}
