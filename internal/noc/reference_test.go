package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/request"
)

// refTick is the reference arbiter: the O(outputs x inputs) scan
// Network.Tick replaced, kept to test it against. It reads only the
// queues and the arbitration pointers — never the demand sets — so it
// shares no grant-rule code with Tick.
func refTick(n *Network) {
	for i := range n.stallVC {
		n.stallVC[i] = n.flt.LinkTick(i, n.vcs)
	}
	numIn := len(n.inputs)
	used := make([]bool, numIn)
	for out, oq := range n.outputs {
	grants:
		for g := 0; g < n.cfg.NoC.ChannelsPerCycle; g++ {
			for k := 0; k < numIn; k++ {
				in := (n.rrInput[out] + k) % numIn
				iq := n.inputs[in]
				if used[in] || iq.Len() == 0 {
					continue
				}
				// Prefer the VC not served last on the link, if it has
				// traffic; a single-VC link tries its one VC twice.
				first := VCID(n.vcs-1) - n.lastVC[in]
				if iq.LenVC(first) == 0 {
					first = n.lastVC[in]
				}
				for _, vc := range [2]VCID{first, VCID(n.vcs-1) - first} {
					head := iq.Peek(vc)
					stalled := n.stallVC != nil && n.stallVC[in] == int8(vc)
					if stalled || head == nil || head.Channel != out || !oq.CanPush(head.Kind) {
						continue
					}
					oq.Push(iq.Pop(vc))
					n.inFlits--
					n.lastVC[in], used[in], n.rrInput[out] = vc, true, (in+1)%numIn
					continue grants
				}
			}
			break // no input could send: the output is done this cycle
		}
	}
}

// TestNextEventReferenceArbiter drives Network.Tick and the reference
// scan with identical random scripts and requires identical grants —
// (input, VC, output, request) in order, every cycle — identical
// arbitration pointers, and that NextEvent says "never" only when the
// reference grants nothing on the next cycle either. The scripts cover
// both VC modes, MEM/PIM mixes, uniform and hot-spot destinations,
// outputs drained at random rates so they fill, one and two grants per
// output per cycle, link stalls on and off, and both the 4x8 single-word
// shape and the 80x32 paper shape, whose 80 inputs span two words so the
// round-robin wrap crosses a word boundary.
func TestNextEventReferenceArbiter(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(config.VCMode) config.Config
	}{
		{"small", smallCfg},
		{"paper", func(m config.VCMode) config.Config { c := config.Paper(); c.NoC.Mode = m; return c }},
	}
	for _, shape := range shapes {
		for _, mode := range []config.VCMode{config.VC1, config.VC2} {
			for _, perCycle := range []int{1, 2} {
				for _, stalls := range []bool{false, true} {
					for _, hot := range []bool{false, true} {
						cfg := shape.mk(mode)
						cfg.NoC.ChannelsPerCycle = perCycle
						name := fmt.Sprintf("%s/%v/grants%d/stalls=%v/hot=%v", shape.name, mode, perCycle, stalls, hot)
						t.Run(name, func(t *testing.T) { runArbiterTwins(t, cfg, stalls, hot) })
					}
				}
			}
		}
	}
}

// grant is one flit crossing the crossbar.
type grant struct {
	in, out int
	vc      VCID
	id      uint64
}

// entry returns the i-th oldest request of a VC.
func (q *VCQueue) entry(vc VCID, i int) *request.Request {
	return q.buf[vc][(q.head[vc]+i)%q.capVC]
}

func runArbiterTwins(t *testing.T, cfg config.Config, stalls, hot bool) {
	numIn, numOut := cfg.GPU.NumSMs, cfg.Memory.Channels
	got, ref := New(cfg), New(cfg)
	if stalls {
		sched := faults.Schedule{Seed: 9, NoCStallProb: 0.05, NoCStallCycles: 3}
		got.SetFaults(faults.NewInjector(sched, numOut, numIn))
		ref.SetFaults(faults.NewInjector(sched, numOut, numIn))
	}
	rng := rand.New(rand.NewSource(int64(numIn*1000 + numOut)))
	var id uint64
	grants, slept := 0, 0

	// tick runs one cycle on a twin and returns the grants it made, read
	// off the tails the cycle appended to the output queues.
	tick := func(n *Network, tickFn func()) []grant {
		before := make([][2]int, numOut)
		for out, oq := range n.outputs {
			before[out] = oq.n
		}
		tickFn()
		var gs []grant
		for out, oq := range n.outputs {
			for vc := VCMem; vc <= VCPim; vc++ {
				for i := before[out][vc]; i < oq.n[vc]; i++ {
					r := oq.entry(vc, i)
					gs = append(gs, grant{in: r.SM, out: out, vc: vc, id: r.ID})
				}
			}
		}
		return gs
	}

	cycles := 3000
	if testing.Short() {
		cycles = 1000 // one heavy and one light phase
	}
	for cycle := 0; cycle < cycles; cycle++ {
		// Phases of heavy and light load, so the ports both fill and empty.
		load := []float64{0.9, 0.15, 0.02}[cycle/500%3]
		for sm := 0; sm < numIn; sm++ {
			if rng.Float64() >= load {
				continue
			}
			ch := rng.Intn(numOut)
			if hot && rng.Intn(4) != 0 {
				ch = rng.Intn(2) // three quarters of the traffic to two outputs
			}
			id++
			a := &request.Request{ID: id, Kind: request.MemRead, Channel: ch, SM: sm}
			if rng.Intn(3) == 0 {
				a.Kind = request.PIMOp
			}
			b := *a
			if okA, okB := got.Inject(sm, a), ref.Inject(sm, &b); okA != okB {
				t.Fatalf("cycle %d: Inject at SM %d diverged: %v vs reference %v", cycle, sm, okA, okB)
			}
		}

		wake := got.NextEvent(uint64(cycle))
		gotGrants := tick(got, got.Tick)
		refGrants := tick(ref, func() { refTick(ref) })
		if !reflect.DeepEqual(gotGrants, refGrants) {
			t.Fatalf("cycle %d: grants diverged:\n  Tick      %v\n  reference %v", cycle, gotGrants, refGrants)
		}
		if !reflect.DeepEqual(got.rrInput, ref.rrInput) || !reflect.DeepEqual(got.lastVC, ref.lastVC) {
			t.Fatalf("cycle %d: arbitration pointers diverged:\n  Tick      rr=%v vc=%v\n  reference rr=%v vc=%v",
				cycle, got.rrInput, got.lastVC, ref.rrInput, ref.lastVC)
		}
		switch {
		case stalls && wake != uint64(cycle)+1:
			t.Fatalf("cycle %d: NextEvent = %d under a stall schedule, want now+1", cycle, wake)
		case !stalls && (wake == ^uint64(0)) != (len(refGrants) == 0):
			// Exact, not merely safe: without stalls a candidate is always
			// granted, so "never" and "the reference granted nothing" agree.
			t.Fatalf("cycle %d: NextEvent = %d but the reference granted %d flits", cycle, wake, len(refGrants))
		}
		grants += len(refGrants)
		if wake == ^uint64(0) && got.InFlits() > 0 {
			slept++
		}

		// Drain each output VC at a random rate, slow enough in the heavy
		// phase that outputs fill and block their inputs.
		for out := 0; out < numOut; out++ {
			for vc := VCMem; vc <= VCPim; vc++ {
				if got.outputs[out].LenVC(vc) > 0 && rng.Intn(3) == 0 {
					got.outputs[out].Pop(vc)
					ref.outputs[out].Pop(vc)
				}
			}
		}
	}
	if grants == 0 {
		t.Fatal("script granted nothing; the property was not exercised")
	}
	if hot && !stalls && !testing.Short() && slept == 0 {
		t.Error("the crossbar never slept on buffered flits; the blocked case was not exercised")
	}
}
