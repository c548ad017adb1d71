// Package noc models the interconnect between the SMs and the memory
// partitions: per-SM injection ports, a crossbar with iSlip-style
// round-robin arbitration, and the per-channel interconnect->L2 queues.
//
// Two configurations are supported (Sec. V, Fig. 7):
//
//   - VC1: MEM and PIM requests share a single FIFO per port. A burst of
//     PIM requests parked at the head of a queue denies service to the
//     MEM requests behind it — the head-of-line blocking that motivates
//     the paper's interconnect change.
//   - VC2: a separate virtual channel carries PIM requests from the SMs
//     all the way to the memory controller. Each shared queue is split in
//     half so the total buffering matches VC1, and every link arbitrates
//     between the two VCs in round-robin fashion: the arbiter records the
//     previous VC served per incoming link and switches to the other VC
//     when it has traffic (a modified iSlip).
package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/request"
)

// VCID indexes a virtual channel within a queue.
type VCID int

const (
	// VCMem carries MEM requests (and everything under VC1).
	VCMem VCID = 0
	// VCPim carries PIM requests under VC2.
	VCPim VCID = 1
)

// vcOf returns the virtual channel a request of the given kind travels in
// under the given mode.
func vcOf(mode config.VCMode, kind request.Kind) VCID {
	if mode == config.VC2 && kind == request.PIMOp {
		return VCPim
	}
	return VCMem
}

// VCQueue is a FIFO queue that is either a single shared buffer (VC1) or
// two half-depth per-VC buffers (VC2). It is used for the SM injection
// ports, the interconnect->L2 queues, and the L2->DRAM queues.
type VCQueue struct {
	mode  config.VCMode
	capVC int
	// Each VC is a fixed-capacity ring over buf: head indexes the oldest
	// entry, n counts occupancy. A plain slice FIFO (pop = q[1:]) walks
	// its backing array forward and forces a reallocation on a later
	// push, which the per-cycle hot path cannot afford.
	buf  [2][]*request.Request
	head [2]int
	n    [2]int
	rr   VCID // VC served last by this queue's consumer
}

// NewVCQueue builds a queue with totalCap entries of buffering: one FIFO
// of totalCap under VC1, two FIFOs of totalCap/2 under VC2 ("we split
// existing interconnect queues in half to add a PIM VC, keeping the total
// queue size equal", Sec. V-A).
func NewVCQueue(mode config.VCMode, totalCap int) *VCQueue {
	capVC := totalCap
	if mode == config.VC2 {
		capVC = totalCap / 2
		if capVC < 1 {
			capVC = 1
		}
	}
	q := &VCQueue{mode: mode, capVC: capVC}
	q.buf[0] = make([]*request.Request, capVC)
	if mode == config.VC2 {
		q.buf[1] = make([]*request.Request, capVC)
	}
	return q
}

// VCs returns how many virtual channels the queue uses.
func (q *VCQueue) VCs() int {
	if q.mode == config.VC2 {
		return 2
	}
	return 1
}

// CanPush reports whether a request of the given kind has buffer space.
func (q *VCQueue) CanPush(kind request.Kind) bool {
	return q.n[vcOf(q.mode, kind)] < q.capVC
}

// SpaceFor returns the free entries available to requests of the given
// kind.
func (q *VCQueue) SpaceFor(kind request.Kind) int {
	return q.capVC - q.n[vcOf(q.mode, kind)]
}

// Push appends the request to its VC, returning false when full.
func (q *VCQueue) Push(r *request.Request) bool {
	r.AssertLive("noc: VCQueue.Push")
	vc := vcOf(q.mode, r.Kind)
	if q.n[vc] >= q.capVC {
		return false
	}
	tail := q.head[vc] + q.n[vc]
	if tail >= q.capVC {
		tail -= q.capVC
	}
	q.buf[vc][tail] = r
	q.n[vc]++
	return true
}

// Peek returns the head of the given VC, or nil when empty.
func (q *VCQueue) Peek(vc VCID) *request.Request {
	if q.n[vc] == 0 {
		return nil
	}
	return q.buf[vc][q.head[vc]]
}

// Pop removes and returns the head of the given VC; it panics when empty.
func (q *VCQueue) Pop(vc VCID) *request.Request {
	if q.n[vc] == 0 {
		panic("noc: Pop on empty VC")
	}
	r := q.buf[vc][q.head[vc]]
	q.buf[vc][q.head[vc]] = nil
	if q.head[vc]++; q.head[vc] == q.capVC {
		q.head[vc] = 0
	}
	q.n[vc]--
	return r
}

// Len returns the total queued requests across VCs.
func (q *VCQueue) Len() int { return q.n[0] + q.n[1] }

// LenVC returns the occupancy of one VC.
func (q *VCQueue) LenVC(vc VCID) int { return q.n[vc] }

// ServeOrder returns the VCs in the round-robin order the consumer should
// try this cycle: the VC not served last first, provided it has traffic.
// The caller must call Served after popping.
func (q *VCQueue) ServeOrder() [2]VCID {
	if q.mode != config.VC2 {
		return [2]VCID{VCMem, VCMem}
	}
	other := VCMem
	if q.rr == VCMem {
		other = VCPim
	}
	if q.n[other] > 0 {
		return [2]VCID{other, q.rr}
	}
	return [2]VCID{q.rr, other}
}

// Served records which VC the consumer just popped from, advancing the
// round-robin state.
func (q *VCQueue) Served(vc VCID) { q.rr = vc }

// Network is the SM->memory-partition crossbar with its input ports and
// per-channel output queues (the interconnect->L2 queues of Fig. 7).
//
// Arbitration never scans the ports. For every (output, VC) the network
// tracks a demand set — a bitset over the input ports whose head flit on
// that VC targets that output — which changes in exactly two places:
// Inject, when it fills an empty VC, and grant, when it pops a head and
// exposes the flit behind it. An output that is full, or that no head
// flit wants, therefore costs Tick two loads, and a grant costs a
// find-first-set.
type Network struct {
	cfg     config.Config
	inputs  []*VCQueue // one per SM
	outputs []*VCQueue // one per channel
	rrInput []int      // per output: round-robin pointer over inputs
	lastVC  []VCID     // per input link: VC served previously
	vcs     int        // virtual channels per link
	words   int        // uint64 words per set of input ports

	// demand holds the demand sets, `words` words each, at index
	// (out*2+vc)*words. used marks the inputs that sent a flit this cycle
	// (all zero between Ticks); cand is candidates' result.
	demand []uint64
	used   []uint64
	cand   []uint64

	// injected and refused count the Inject calls accepted and turned
	// away by a full port.
	injected, refused uint64

	// Fault injector handle plus the per-cycle stalled-VC scratch it
	// fills; flt nil (the default) means no injection and stallVC stays
	// nil, keeping Tick bit-identical to a fault-free run.
	flt     *faults.Injector
	stallVC []int8

	// inFlits counts requests buffered across all input ports; zero means
	// every demand set is empty, which NextEvent answers in O(1).
	inFlits int

	cons conservation // simdebug builds only (invariants.go)
}

// New builds the network for the given configuration.
func New(cfg config.Config) *Network {
	words := (cfg.GPU.NumSMs + 63) / 64
	sets := make([]uint64, (cfg.Memory.Channels*2+2)*words) // one allocation for all three
	n := &Network{
		cfg:     cfg,
		inputs:  make([]*VCQueue, cfg.GPU.NumSMs),
		outputs: make([]*VCQueue, cfg.Memory.Channels),
		rrInput: make([]int, cfg.Memory.Channels),
		lastVC:  make([]VCID, cfg.GPU.NumSMs),
		words:   words,
		demand:  sets[2*words:],
		used:    sets[:words:words],
		cand:    sets[words : 2*words : 2*words],
	}
	for i := range n.inputs {
		n.inputs[i] = NewVCQueue(cfg.NoC.Mode, cfg.GPU.InjectQueue)
	}
	for i := range n.outputs {
		n.outputs[i] = NewVCQueue(cfg.NoC.Mode, cfg.NoC.BufferSize)
	}
	n.vcs = n.outputs[0].VCs()
	return n
}

// CanInject reports whether SM sm can inject a request of the given kind.
func (n *Network) CanInject(sm int, kind request.Kind) bool {
	return n.inputs[sm].CanPush(kind)
}

// InputSpace returns the free injection entries at SM sm for the given
// kind (the L1 miss path needs room for a fetch plus a possible
// writeback).
func (n *Network) InputSpace(sm int, kind request.Kind) int {
	return n.inputs[sm].SpaceFor(kind)
}

// demandBit locates input in's bit in the demand set of (out, vc).
func (n *Network) demandBit(out int, vc VCID, in int) (word *uint64, bit uint64) {
	return &n.demand[(out*2+int(vc))*n.words+in>>6], 1 << (in & 63)
}

// Inject enqueues a request at SM sm's input port, returning false when
// the port (the request's VC under VC2) is full. A request routed to a
// channel the network does not have would park at the head of its VC
// forever, so it is a panic.
func (n *Network) Inject(sm int, r *request.Request) bool {
	if r.Channel < 0 || r.Channel >= len(n.outputs) {
		panic(fmt.Sprintf("noc: Inject at SM %d: %v targets a channel outside [0, %d)", sm, r, len(n.outputs))) //pimlint:coldpath
	}
	iq := n.inputs[sm]
	if !iq.Push(r) {
		n.refused++
		return false
	}
	vc := vcOf(n.cfg.NoC.Mode, r.Kind)
	if iq.n[vc] == 1 { // r is the VC's new head
		word, bit := n.demandBit(r.Channel, vc, sm)
		*word |= bit
	}
	if invariant.Enabled {
		n.cons.injected[vc]++
	}
	n.inFlits++
	n.injected++
	return true
}

// InFlits returns the requests currently buffered at the input ports.
func (n *Network) InFlits() int { return n.inFlits }

// NextEvent returns the earliest GPU cycle strictly after now at which
// Tick could change network state, and is the one statement of when the
// crossbar must be ticked. With an active link-stall schedule the
// per-link RNG draws once per link per cycle, so the network ticks every
// cycle to keep the fault stream aligned. Otherwise Tick changes state
// only by granting, so the answer is now+1 iff some output has a
// candidate, and never if not: an empty crossbar, or one whose every
// wanted output is full, sleeps until an Inject or a pop from an output
// queue changes what candidates sees — both are the caller's own acts, so
// it asks again after them rather than caching the answer.
func (n *Network) NextEvent(now uint64) uint64 {
	if n.flt.Schedule().NoCStallProb > 0 {
		return now + 1
	}
	if n.inFlits > 0 {
		for out, oq := range n.outputs {
			if n.candidates(out, oq) {
				return now + 1
			}
		}
	}
	return ^uint64(0)
}

// Injections returns how many Inject calls the network accepted and how
// many a full port refused.
func (n *Network) Injections() (accepted, refused uint64) { return n.injected, n.refused }

// SetFaults attaches the run's fault injector (nil disables link-stall
// injection).
func (n *Network) SetFaults(inj *faults.Injector) {
	n.flt = inj
	if inj == nil {
		n.stallVC = nil
		return
	}
	n.stallVC = make([]int8, len(n.inputs))
}

// Output returns channel ch's interconnect->L2 queue, from which the L2
// slice (MEM VC) and the PIM forwarding path drain requests.
func (n *Network) Output(ch int) *VCQueue { return n.outputs[ch] }

// InputLen returns the occupancy of SM sm's injection port (for tests and
// congestion probes).
func (n *Network) InputLen(sm int) int { return n.inputs[sm].Len() }

// Tick runs one GPU cycle of crossbar arbitration: each output port
// accepts up to ChannelsPerCycle flits, each input port sends at most one
// flit, and per-link VC selection alternates iSlip-style.
func (n *Network) Tick() {
	if n.flt != nil {
		// Advance every link's fault stream exactly once per cycle (even
		// idle links) so the stall sequence depends only on the schedule,
		// never on traffic.
		for i := range n.stallVC {
			n.stallVC[i] = n.flt.LinkTick(i, n.vcs)
		}
	}
	for out := 0; n.inFlits > 0 && out < len(n.outputs); out++ {
		oq := n.outputs[out]
		// The candidates are recomputed after every grant: it fills a slot
		// of the output and uses up an input.
		for g := 0; g < n.cfg.NoC.ChannelsPerCycle && n.candidates(out, oq); g++ {
			in, vc := n.arbitrate(out, oq)
			if in < 0 {
				break
			}
			n.grant(in, vc, out, oq)
		}
	}
	for w := range n.used {
		n.used[w] = 0
	}
	if invariant.Enabled {
		n.checkInvariants() //pimlint:coldpath — simdebug builds only
	}
}

// candidates computes into n.cand the inputs that output out could accept
// a flit from right now — those with a head flit for out on a VC of out
// that has buffer space, less the inputs that already sent a flit this
// cycle — and reports whether there are any.
func (n *Network) candidates(out int, oq *VCQueue) bool {
	memOK := oq.n[VCMem] < oq.capVC
	pimOK := n.vcs == 2 && oq.n[VCPim] < oq.capVC
	if !memOK && !pimOK {
		return false
	}
	sets := n.demand[out*2*n.words:]
	var any uint64
	for w := range n.cand {
		var c uint64
		if memOK {
			c = sets[w]
		}
		if pimOK {
			c |= sets[n.words+w]
		}
		c &^= n.used[w]
		n.cand[w] = c
		any |= c
	}
	return any != 0
}

// arbitrate picks the candidate output out serves: the first one at or
// after its round-robin pointer, wrapping, whose link can send, and the
// VC it sends on. It returns in < 0 when link stalls block every
// candidate.
func (n *Network) arbitrate(out int, oq *VCQueue) (in int, vc VCID) {
	start := n.rrInput[out]
	w0, low := start>>6, uint64(1)<<(start&63)-1
	for i := 0; i <= n.words; i++ {
		w := w0 + i
		if w >= n.words {
			w -= n.words
		}
		c := n.cand[w]
		switch i {
		case 0:
			c &^= low // the pointer's word, from the pointer up
		case n.words:
			c &= low // the same word again after the wrap: below the pointer
		}
		for ; c != 0; c &= c - 1 {
			in := w<<6 + bits.TrailingZeros64(c)
			if vc, ok := n.pickVC(in, out, oq); ok {
				return in, vc
			}
		}
	}
	return -1, VCMem
}

// pickVC selects which VC of candidate input in (if any) sends its head
// flit to output out this cycle. A VC is eligible when its head targets
// out, out has space on it, and no transient link fault stalls it; with
// both eligible the link alternates, taking the VC it did not serve last.
func (n *Network) pickVC(in, out int, oq *VCQueue) (VCID, bool) {
	var ok [2]bool
	for vc := VCMem; int(vc) < n.vcs; vc++ {
		word, bit := n.demandBit(out, vc, in)
		ok[vc] = *word&bit != 0 && oq.n[vc] < oq.capVC &&
			(n.stallVC == nil || n.stallVC[in] != int8(vc))
	}
	switch {
	case ok[VCMem] && ok[VCPim]:
		return VCPim - n.lastVC[in], true
	case ok[VCMem]:
		return VCMem, true
	}
	return VCPim, ok[VCPim]
}

// grant moves the head flit of input in's VC vc to output out and exposes
// the flit behind it to that flit's own output.
func (n *Network) grant(in int, vc VCID, out int, oq *VCQueue) {
	iq := n.inputs[in]
	r := iq.Pop(vc)
	n.inFlits--
	word, bit := n.demandBit(out, vc, in)
	*word &^= bit
	if next := iq.Peek(vc); next != nil {
		word, bit := n.demandBit(next.Channel, vc, in)
		*word |= bit
	}
	if !oq.Push(r) {
		panic("noc: output accepted but push failed")
	}
	if invariant.Enabled {
		n.cons.delivered[vc]++
	}
	n.lastVC[in] = vc
	n.used[in>>6] |= bit
	if in++; in == len(n.inputs) {
		in = 0
	}
	n.rrInput[out] = in
}
