package noc

import "repro/internal/invariant"

// Debug-build conservation counters, per VC. Ordinary fields, but every
// update and check sits behind `if invariant.Enabled`, so release builds
// never touch them.
type conservation struct {
	injected  [2]uint64 // flits admitted by Inject
	delivered [2]uint64 // flits granted into an output queue
}

// checkInvariants validates the crossbar at a cycle boundary (called from
// Tick in simdebug builds), recomputing from the queues what Tick tracks
// incrementally:
//
//   - demand sets: input in's bit is set in the set of (out, vc) exactly
//     when in's VC vc has a head flit and it targets out — a stale set
//     bit would grant a flit to the wrong output, a missing one parks the
//     port forever;
//   - flit conservation per VC: injected = delivered + buffered at the
//     inputs, and inFlits is that buffered total;
//   - the used-input mask is clear between cycles.
func (n *Network) checkInvariants() {
	buffered := 0
	for vc := VCMem; vc <= VCPim; vc++ {
		held := uint64(0)
		for in, iq := range n.inputs {
			held += uint64(iq.LenVC(vc))
			head := iq.Peek(vc)
			for out := range n.outputs {
				word, bit := n.demandBit(out, vc, in)
				want := head != nil && head.Channel == out
				invariant.Assert((*word&bit != 0) == want,
					"noc: demand bit (out %d, vc %d, in %d) is %v, but the VC's head is %v",
					out, vc, in, !want, head)
			}
		}
		invariant.Assert(n.cons.injected[vc] == n.cons.delivered[vc]+held,
			"noc: flit conservation broken on vc %d: injected=%d delivered=%d buffered=%d",
			vc, n.cons.injected[vc], n.cons.delivered[vc], held)
		buffered += int(held)
	}
	invariant.Assert(buffered == n.inFlits, "noc: inFlits=%d but the input ports hold %d", n.inFlits, buffered)
	for w, u := range n.used {
		invariant.Assert(u == 0, "noc: used-input mask word %d is %#x between cycles", w, u)
	}
}
