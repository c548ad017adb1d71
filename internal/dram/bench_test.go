package dram

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// BenchmarkCommandStreamStats measures mixed command scheduling across all
// banks with statistics attached — every ACT, PRE and column command
// credits its busy window to the activity figures as it issues — and a
// PublishActivity every 1024 cycles, the cadence of a telemetry epoch.
// BenchmarkRandomBankCommands is the same stream with no statistics.
func BenchmarkCommandStreamStats(b *testing.B) {
	cfg := config.Paper()
	var st stats.Channel
	ch := NewChannel(cfg.Memory, cfg.PIM, &st)
	rng := rand.New(rand.NewSource(5))
	var now uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		bank := rng.Intn(cfg.Memory.Banks)
		switch state, row := ch.State(bank); state {
		case Closed:
			if ch.CanActivate(bank, now) {
				ch.Activate(bank, uint32(rng.Intn(64)), now)
			}
		case Open:
			if rng.Intn(4) == 0 && ch.CanPrecharge(bank, now) {
				ch.Precharge(bank, now)
			} else if ch.CanColumn(bank, row, false, now) {
				ch.Column(bank, row, false, now)
			}
		}
		if now%1024 == 0 {
			ch.PublishActivity(now)
		}
	}
}

// BenchmarkRowHitStream measures back-to-back column issue on an open
// row — the steady-state service path.
func BenchmarkRowHitStream(b *testing.B) {
	cfg := config.Paper()
	ch := NewChannel(cfg.Memory, cfg.PIM, nil)
	tm := cfg.Memory.Timing
	ch.Activate(0, 1, 0)
	now := uint64(tm.TRCD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !ch.CanColumn(0, 1, false, now) {
			now++
		}
		ch.Column(0, 1, false, now)
	}
}

// BenchmarkPIMOpStream measures lockstep PIM execution.
func BenchmarkPIMOpStream(b *testing.B) {
	cfg := config.Paper()
	ch := NewChannel(cfg.Memory, cfg.PIM, nil)
	tm := cfg.Memory.Timing
	ch.PIMActivateAll(1, 0)
	now := uint64(tm.TRCD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !ch.CanPIMOp(1, now) {
			now++
		}
		ch.PIMOp(1, true, now)
	}
}

// BenchmarkRandomBankCommands measures mixed command scheduling across
// all banks.
func BenchmarkRandomBankCommands(b *testing.B) {
	cfg := config.Paper()
	ch := NewChannel(cfg.Memory, cfg.PIM, nil)
	rng := rand.New(rand.NewSource(5))
	var now uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		bank := rng.Intn(cfg.Memory.Banks)
		switch state, row := ch.State(bank); state {
		case Closed:
			if ch.CanActivate(bank, now) {
				ch.Activate(bank, uint32(rng.Intn(64)), now)
			}
		case Open:
			if rng.Intn(4) == 0 && ch.CanPrecharge(bank, now) {
				ch.Precharge(bank, now)
			} else if ch.CanColumn(bank, row, false, now) {
				ch.Column(bank, row, false, now)
			}
		}
	}
}
