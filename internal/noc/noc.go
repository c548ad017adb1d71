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
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/request"
	"repro/internal/telemetry"
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

// Mode returns the queue's VC configuration.
func (q *VCQueue) Mode() config.VCMode { return q.mode }

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
	q.buf[vc][(q.head[vc]+q.n[vc])%q.capVC] = r
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
	q.head[vc] = (q.head[vc] + 1) % q.capVC
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
type Network struct {
	cfg      config.Config
	inputs   []*VCQueue // one per SM
	outputs  []*VCQueue // one per channel
	rrInput  []int      // per output: round-robin pointer over inputs
	lastVC   []VCID     // per input link: VC served previously
	usedThis []bool     // per input: sent a flit this cycle (scratch)

	// Telemetry handles; nil when telemetry is off (methods no-op on nil
	// receivers).
	tmInjected *telemetry.Counter
	tmRejected *telemetry.Counter

	// Fault injector handle plus the per-cycle stalled-VC scratch it
	// fills; flt nil (the default) means no injection and stallVC stays
	// nil, keeping Tick bit-identical to a fault-free run.
	flt     *faults.Injector
	stallVC []int8

	// inFlits counts requests buffered across all input ports. Tick only
	// mutates durable state (rrInput, lastVC, output queues) when it
	// grants a flit, which requires a non-empty input, so the counter
	// lets NextEvent prove an empty crossbar cycle is a no-op in O(1).
	inFlits int
}

// New builds the network for the given configuration.
func New(cfg config.Config) *Network {
	n := &Network{
		cfg:      cfg,
		inputs:   make([]*VCQueue, cfg.GPU.NumSMs),
		outputs:  make([]*VCQueue, cfg.Memory.Channels),
		rrInput:  make([]int, cfg.Memory.Channels),
		lastVC:   make([]VCID, cfg.GPU.NumSMs),
		usedThis: make([]bool, cfg.GPU.NumSMs),
	}
	for i := range n.inputs {
		n.inputs[i] = NewVCQueue(cfg.NoC.Mode, cfg.GPU.InjectQueue)
	}
	for i := range n.outputs {
		n.outputs[i] = NewVCQueue(cfg.NoC.Mode, cfg.NoC.BufferSize)
	}
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

// Inject enqueues a request at SM sm's input port, returning false when
// the port (the request's VC under VC2) is full.
func (n *Network) Inject(sm int, r *request.Request) bool {
	if !n.inputs[sm].Push(r) {
		n.tmRejected.Inc()
		return false
	}
	n.inFlits++
	n.tmInjected.Inc()
	return true
}

// InFlits returns the requests currently buffered at the input ports.
func (n *Network) InFlits() int { return n.inFlits }

// NextEvent returns the earliest GPU cycle strictly after now at which
// Tick could change network state. With an active link-stall schedule
// the per-link RNG draws once per link per cycle, so the network must
// tick every cycle to keep the fault stream aligned; otherwise a
// crossbar with empty input ports cannot grant anything (arbitration
// pointers move only on grants) and sleeps until an injection wakes it.
func (n *Network) NextEvent(now uint64) uint64 {
	if n.inFlits > 0 || n.flt.Schedule().NoCStallProb > 0 {
		return now + 1
	}
	return ^uint64(0)
}

// SetTelemetry installs the interconnect's telemetry handles (nil
// disables them).
func (n *Network) SetTelemetry(tm *telemetry.NoCMetrics) {
	if tm == nil {
		n.tmInjected, n.tmRejected = nil, nil
		return
	}
	n.tmInjected = tm.Injected
	n.tmRejected = tm.Rejected
}

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
	for i := range n.usedThis {
		n.usedThis[i] = false
	}
	if n.flt != nil {
		// Advance every link's fault stream exactly once per cycle (even
		// idle links) so the stall sequence depends only on the schedule,
		// never on traffic.
		vcs := 1
		if n.cfg.NoC.Mode == config.VC2 {
			vcs = 2
		}
		for i := range n.stallVC {
			n.stallVC[i] = n.flt.LinkTick(i, vcs)
		}
	}
	numIn := len(n.inputs)
	for out, oq := range n.outputs {
		for grant := 0; grant < n.cfg.NoC.ChannelsPerCycle; grant++ {
			granted := false
			start := n.rrInput[out]
			for k := 0; k < numIn; k++ {
				in := (start + k) % numIn
				if n.usedThis[in] {
					continue
				}
				iq := n.inputs[in]
				if iq.Len() == 0 {
					continue
				}
				if vc, ok := n.pickVC(iq, in, out, oq); ok {
					r := iq.Pop(vc)
					n.inFlits--
					if !oq.Push(r) {
						panic("noc: output accepted but push failed")
					}
					n.lastVC[in] = vc
					n.usedThis[in] = true
					n.rrInput[out] = (in + 1) % numIn
					granted = true
					break
				}
			}
			if !granted {
				break
			}
		}
	}
}

// pickVC selects which VC of input in (if any) can send its head flit to
// output out this cycle, preferring the VC not served last on the link.
func (n *Network) pickVC(iq *VCQueue, in, out int, oq *VCQueue) (VCID, bool) {
	order := [2]VCID{VCMem, VCMem}
	if n.cfg.NoC.Mode == config.VC2 {
		first := VCPim
		if n.lastVC[in] == VCPim {
			first = VCMem
		}
		if iq.LenVC(first) == 0 {
			first = n.lastVC[in]
		}
		second := VCMem
		if first == VCMem {
			second = VCPim
		}
		order = [2]VCID{first, second}
	}
	for i, vc := range order {
		if i == 1 && vc == order[0] {
			break // VC1: single channel already tried
		}
		if n.stallVC != nil && n.stallVC[in] == int8(vc) {
			continue // transient link fault blocks this VC this cycle
		}
		head := iq.Peek(vc)
		if head == nil || head.Channel != out {
			continue
		}
		if !oq.CanPush(head.Kind) {
			continue
		}
		return vc, true
	}
	return VCMem, false
}
