package memctrl

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
)

// BenchmarkControllerTickMEM measures the per-DRAM-cycle cost of a
// controller saturated with MEM traffic under FR-FCFS — the simulator's
// hottest path.
func BenchmarkControllerTickMEM(b *testing.B) {
	cfg := config.Paper()
	var st stats.Channel
	c := New(0, cfg, sched.NewFRFCFS(), &st, nil)
	rng := rand.New(rand.NewSource(1))
	var id uint64
	refill := func() {
		for c.CanAccept(request.MemRead) {
			id++
			c.Enqueue(&request.Request{
				ID: id, Kind: request.MemRead,
				Bank: rng.Intn(cfg.Memory.Banks), Row: uint32(rng.Intn(64)),
			})
		}
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(uint64(i))
		if i%32 == 0 {
			refill()
		}
	}
}

// BenchmarkControllerTickPIM measures the lockstep PIM path.
func BenchmarkControllerTickPIM(b *testing.B) {
	cfg := config.Paper()
	var st stats.Channel
	c := New(0, cfg, sched.NewPIMFirst(), &st, nil)
	var id uint64
	block := 0
	refill := func() {
		for c.CanAccept(request.PIMOp) {
			id++
			c.Enqueue(&request.Request{
				ID: id, Kind: request.PIMOp, Row: uint32(block % 64),
				PIM: &request.PIMInfo{Op: request.PIMLoad, RFEntry: int(id % 8), Block: block},
			})
			if id%24 == 0 {
				block++
			}
		}
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(uint64(i))
		if i%64 == 0 {
			refill()
		}
	}
}

// BenchmarkControllerTickMixed measures MEM/PIM contention with mode
// switching under F3FS-like competitive conditions (FR-FCFS here to stay
// within this package).
func BenchmarkControllerTickMixed(b *testing.B) {
	cfg := config.Paper()
	var st stats.Channel
	c := New(0, cfg, sched.NewFRRRFCFS(), &st, nil)
	rng := rand.New(rand.NewSource(2))
	var id uint64
	block := 0
	refill := func() {
		for c.CanAccept(request.MemRead) {
			id++
			c.Enqueue(&request.Request{ID: id, Kind: request.MemRead,
				Bank: rng.Intn(cfg.Memory.Banks), Row: uint32(rng.Intn(64))})
		}
		for c.CanAccept(request.PIMOp) {
			id++
			c.Enqueue(&request.Request{ID: id, Kind: request.PIMOp, Row: uint32(block % 64),
				PIM: &request.PIMInfo{Op: request.PIMLoad, RFEntry: int(id % 8), Block: block}})
			if id%24 == 0 {
				block++
			}
		}
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(uint64(i))
		if i%64 == 0 {
			refill()
		}
	}
}

// BenchmarkControllerTickWaiting measures a wake that has nothing to issue
// — the state a saturated run spends most controller ticks in (61 % of the
// MEM issue scans on the coexec_saturated workload): a loaded MEM queue
// whose every candidate is a row hit waiting out tRCD, ticked and then
// asked for its next event, as the event engine does.
func BenchmarkControllerTickWaiting(b *testing.B) {
	cfg := config.Paper()
	cfg.Memory.Timing.TRCD = 1 << 40 // no column command becomes legal while the benchmark runs
	var st stats.Channel
	c := New(0, cfg, sched.NewFRFCFS(), &st, nil)
	for i := 0; i < cfg.Memory.MemQSize; i++ {
		c.Enqueue(&request.Request{ID: uint64(i + 1), Kind: request.MemRead, Bank: i % cfg.Memory.Banks, Row: 1})
	}
	// Open row 1 in every bank; from then on nothing can issue.
	now := uint64(0)
	for open := 0; open < cfg.Memory.Banks; {
		now++
		c.Tick(now)
		open = 0
		for bank := 0; bank < cfg.Memory.Banks; bank++ {
			if c.Channel().IsRowHit(bank, 1) {
				open++
			}
		}
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		c.Tick(now)
		sink += c.NextEvent(now)
	}
	if m, _ := c.QueueLens(); m != cfg.Memory.MemQSize || sink == 0 {
		b.Fatalf("the queue moved: %d of %d requests left", m, cfg.Memory.MemQSize)
	}
}
