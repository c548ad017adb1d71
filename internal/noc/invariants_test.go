package noc

import (
	"testing"

	"repro/internal/config"
	"repro/internal/invariant"
)

// TestInvariantsCatchBrokenBookkeeping is the mutation test for the
// crossbar's simdebug assertions: each case puts a network into the state
// a specific bookkeeping bug would leave it in, and the next Tick must
// panic in a simdebug build (and must not in a release build, where the
// assertions are compiled out).
func TestInvariantsCatchBrokenBookkeeping(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(n *Network)
	}{
		// Inject (or grant, exposing the next head) skips its demand-set
		// update: no output ever sees the flit and its port is parked.
		{"dropped demand-bit update", func(n *Network) {
			word, bit := n.demandBit(3, VCPim, 1)
			*word &^= bit
		}},
		// grant leaves a bit of the head it popped behind: output 5 would
		// take SM 2's flit for output 4.
		{"stale demand bit", func(n *Network) {
			word, bit := n.demandBit(5, VCMem, 2)
			*word |= bit
		}},
		// A flit leaves an input port without reaching an output.
		{"lost flit", func(n *Network) {
			n.inputs[1].Pop(VCPim)
			word, bit := n.demandBit(3, VCPim, 1)
			*word &^= bit
			n.inFlits--
		}},
	}
	for _, c := range cases {
		n := New(smallCfg(config.VC2))
		for n.outputs[3].Push(pim(3)) {
		} // output 3's PIM VC is full, so SM 1's flit stays at its port
		if !n.Inject(1, pim(3)) || !n.Inject(2, mem(4)) || !n.Inject(2, mem(4)) {
			t.Fatal("injection refused")
		}
		n.Tick() // a healthy cycle passes the checks; SM 2 keeps one flit for output 4
		c.corrupt(n)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			n.Tick()
			return false
		}()
		if panicked != invariant.Enabled {
			t.Errorf("%s: Tick panicked=%v, want %v", c.name, panicked, invariant.Enabled)
		}
	}
}
