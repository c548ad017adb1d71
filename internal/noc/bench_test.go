package noc

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/invariant"
	"repro/internal/request"
)

// paperCfg is the full-scale 80x32 crossbar (two words of input ports).
func paperCfg(mode config.VCMode) config.Config {
	cfg := config.Paper()
	cfg.NoC.Mode = mode
	return cfg
}

// popOutputs drains one flit per VC from every output.
func popOutputs(n *Network) {
	for _, q := range n.outputs {
		for _, vc := range []VCID{VCMem, VCPim} {
			if q.LenVC(vc) > 0 {
				q.Pop(vc)
			}
		}
	}
}

func benchNetwork(b *testing.B, mode config.VCMode) {
	cfg := paperCfg(mode)
	n := New(cfg)
	rng := rand.New(rand.NewSource(3))
	var id uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep ports loaded and outputs draining, as in a real run.
		for sm := 0; sm < cfg.GPU.NumSMs; sm += 4 {
			id++
			r := &request.Request{ID: id, Kind: request.MemRead, Channel: rng.Intn(cfg.Memory.Channels), SM: sm}
			n.Inject(sm, r)
		}
		n.Tick()
		popOutputs(n)
	}
}

// BenchmarkCrossbarTickVC1 measures full-scale (80x32) crossbar
// arbitration per GPU cycle under the shared-queue configuration.
func BenchmarkCrossbarTickVC1(b *testing.B) { benchNetwork(b, config.VC1) }

// BenchmarkCrossbarTickVC2 measures the split-VC configuration.
func BenchmarkCrossbarTickVC2(b *testing.B) { benchNetwork(b, config.VC2) }

// BenchmarkCrossbarTickBlocked measures a cycle in which nothing can
// move: every input port and every output queue is full and nothing
// drains — the state a PIM kernel in lockstep holds the crossbar in while
// the controllers' PIM queues are full.
func BenchmarkCrossbarTickBlocked(b *testing.B) {
	cfg := paperCfg(config.VC2)
	n := New(cfg)
	rng := rand.New(rand.NewSource(3))
	kinds := []request.Kind{request.MemRead, request.PIMOp} // one per VC
	for ch, oq := range n.outputs {
		for _, kind := range kinds {
			for oq.Push(&request.Request{Kind: kind, Channel: ch}) {
			}
		}
	}
	for sm := range n.inputs {
		for _, kind := range kinds {
			for n.Inject(sm, &request.Request{Kind: kind, Channel: rng.Intn(cfg.Memory.Channels)}) {
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Tick()
	}
	if got, want := n.InFlits(), cfg.GPU.NumSMs*cfg.GPU.InjectQueue; got != want {
		b.Fatalf("%d flits buffered after the run, want all %d: the crossbar was not blocked", got, want)
	}
}

// BenchmarkCrossbarTickIdleInputs measures a lightly loaded crossbar: two
// of the 80 input ports carry traffic, the rest stay empty, and the
// outputs drain.
func BenchmarkCrossbarTickIdleInputs(b *testing.B) {
	cfg := paperCfg(config.VC2)
	n := New(cfg)
	rng := rand.New(rand.NewSource(3))
	reqs := make([]request.Request, 64) // recycled: at most 2 x InjectQueue are in the network
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, sm := range [2]int{0, cfg.GPU.NumSMs - 1} {
			r := &reqs[(2*i+k)%len(reqs)]
			*r = request.Request{Kind: request.MemRead, Channel: rng.Intn(cfg.Memory.Channels), SM: sm}
			n.Inject(sm, r)
		}
		n.Tick()
		popOutputs(n)
	}
}

// TestTickZeroAlloc pins the crossbar's cycle — Inject, Tick, and the
// consumer's pops — as allocation-free, under both VC modes.
func TestTickZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("simdebug build: per-cycle invariant checks allocate by design")
	}
	for _, mode := range []config.VCMode{config.VC1, config.VC2} {
		cfg := paperCfg(mode)
		n := New(cfg)
		rng := rand.New(rand.NewSource(5))
		// Requests are recycled; the ring outlasts a flit's stay in the
		// network (a grant and a pop per output per cycle, 4 injected).
		reqs := make([]request.Request, 4096)
		next := 0
		allocs := testing.AllocsPerRun(2000, func() {
			for k := 0; k < 4; k++ {
				r := &reqs[next%len(reqs)]
				*r = request.Request{Kind: request.MemRead, Channel: rng.Intn(cfg.Memory.Channels)}
				if rng.Intn(3) == 0 {
					r.Kind = request.PIMOp
				}
				if n.Inject(rng.Intn(cfg.GPU.NumSMs), r) {
					next++
				}
			}
			n.Tick()
			popOutputs(n)
		})
		if allocs != 0 {
			t.Errorf("%v: Inject+Tick allocates %.1f objects per cycle, want 0", mode, allocs)
		}
		if next == 0 {
			t.Errorf("%v: nothing was injected", mode)
		}
	}
}
