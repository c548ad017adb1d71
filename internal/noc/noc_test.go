package noc

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/request"
)

var nocID uint64

func mem(ch int) *request.Request {
	nocID++
	return &request.Request{ID: nocID, Kind: request.MemRead, Channel: ch}
}

func pim(ch int) *request.Request {
	nocID++
	return &request.Request{ID: nocID, Kind: request.PIMOp, Channel: ch,
		PIM: &request.PIMInfo{Op: request.PIMLoad}}
}

func smallCfg(mode config.VCMode) config.Config {
	cfg := config.Scaled()
	cfg.GPU.NumSMs = 4
	cfg.GPU.PIMSMs = 2
	cfg.Memory.Channels = 8
	cfg.NoC.Mode = mode
	cfg.NoC.BufferSize = 8
	cfg.GPU.InjectQueue = 4
	return cfg
}

func TestVCQueueCapacitySplit(t *testing.T) {
	q1 := NewVCQueue(config.VC1, 8)
	for i := 0; i < 8; i++ {
		if !q1.Push(mem(0)) {
			t.Fatalf("VC1 push %d refused", i)
		}
	}
	if q1.Push(mem(0)) {
		t.Error("VC1 accepted past capacity")
	}
	if q1.Push(pim(0)) {
		t.Error("VC1 shares one buffer; PIM must also be refused")
	}

	q2 := NewVCQueue(config.VC2, 8)
	for i := 0; i < 4; i++ {
		if !q2.Push(mem(0)) {
			t.Fatalf("VC2 MEM push %d refused", i)
		}
	}
	if q2.Push(mem(0)) {
		t.Error("VC2 MEM VC accepted past its half")
	}
	// PIM VC is independent.
	for i := 0; i < 4; i++ {
		if !q2.Push(pim(0)) {
			t.Fatalf("VC2 PIM push %d refused", i)
		}
	}
	if q2.Len() != 8 {
		t.Errorf("total = %d, want 8 (equal total buffering)", q2.Len())
	}
}

func TestVCQueueFIFOPerVC(t *testing.T) {
	q := NewVCQueue(config.VC2, 8)
	a, b := pim(0), pim(0)
	q.Push(a)
	q.Push(b)
	if q.Peek(VCPim) != a {
		t.Error("PIM VC not FIFO")
	}
	if q.Pop(VCPim) != a || q.Pop(VCPim) != b {
		t.Error("pop order wrong")
	}
}

func TestServeOrderAlternates(t *testing.T) {
	q := NewVCQueue(config.VC2, 8)
	q.Push(mem(0))
	q.Push(pim(0))
	// Last served defaults to MEM (zero value), so PIM goes first.
	if order := q.ServeOrder(); order[0] != VCPim {
		t.Errorf("first order = %v, want PIM first", order)
	}
	q.Served(VCPim)
	if order := q.ServeOrder(); order[0] != VCMem {
		t.Errorf("after PIM served, order = %v, want MEM first", order)
	}
	q.Served(VCMem)
	if order := q.ServeOrder(); order[0] != VCPim {
		t.Errorf("alternation broken: %v", order)
	}
}

func TestServeOrderSkipsEmptyVC(t *testing.T) {
	q := NewVCQueue(config.VC2, 8)
	q.Push(mem(0))
	q.Served(VCMem) // would prefer PIM next, but PIM is empty
	if order := q.ServeOrder(); order[0] != VCMem {
		t.Errorf("order = %v, want MEM (PIM has no traffic)", order)
	}
}

// TestVCQueueProperties drives a queue with a random push/pop script and
// checks the structural invariants under both VC modes.
func TestVCQueueProperties(t *testing.T) {
	if err := quick.Check(func(modeSel bool, cap8 uint8, script []uint8) bool {
		mode := config.VC1
		if modeSel {
			mode = config.VC2
		}
		capacity := int(cap8%16) + 2
		q := NewVCQueue(mode, capacity)
		perVC := capacity
		if mode == config.VC2 {
			perVC = capacity / 2
		}
		var fifo [2][]uint64
		var id uint64
		for _, op := range script {
			switch op % 3 {
			case 0, 1: // push MEM or PIM
				id++
				r := &request.Request{ID: id, Kind: request.MemRead}
				if op%3 == 1 {
					r.Kind = request.PIMOp
					r.PIM = &request.PIMInfo{}
				}
				vc := vcOf(mode, r.Kind)
				ok := q.Push(r)
				if ok != (len(fifo[vc]) < perVC) {
					return false // capacity law violated
				}
				if ok {
					fifo[vc] = append(fifo[vc], r.ID)
				}
			case 2: // pop from a VC with content
				for _, vc := range []VCID{VCMem, VCPim} {
					if len(fifo[vc]) > 0 {
						got := q.Pop(vc)
						if got.ID != fifo[vc][0] {
							return false // FIFO order violated
						}
						fifo[vc] = fifo[vc][1:]
						break
					}
				}
			}
			if q.Len() != len(fifo[0])+len(fifo[1]) {
				return false // length accounting violated
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCrossbarDeliversToTargetChannel(t *testing.T) {
	cfg := smallCfg(config.VC1)
	n := New(cfg)
	r := mem(5)
	if !n.Inject(0, r) {
		t.Fatal("inject refused")
	}
	n.Tick()
	if got := n.Output(5).Len(); got != 1 {
		t.Fatalf("channel 5 queue len = %d", got)
	}
	if n.Output(5).Peek(VCMem) != r {
		t.Error("wrong request delivered")
	}
}

func TestCrossbarOneFlitPerInputPerCycle(t *testing.T) {
	cfg := smallCfg(config.VC1)
	n := New(cfg)
	n.Inject(0, mem(1))
	n.Inject(0, mem(2))
	n.Tick()
	total := n.Output(1).Len() + n.Output(2).Len()
	if total != 1 {
		t.Errorf("input sent %d flits in one cycle, want 1", total)
	}
	n.Tick()
	total = n.Output(1).Len() + n.Output(2).Len()
	if total != 2 {
		t.Errorf("second cycle total = %d, want 2", total)
	}
}

func TestCrossbarRoundRobinFairness(t *testing.T) {
	cfg := smallCfg(config.VC1)
	n := New(cfg)
	// All four inputs target channel 0; four cycles must serve each
	// input exactly once.
	var reqs []*request.Request
	for sm := 0; sm < 4; sm++ {
		r := mem(0)
		r.SM = sm
		reqs = append(reqs, r)
		if !n.Inject(sm, r) {
			t.Fatal("inject refused")
		}
	}
	seen := map[int]bool{}
	for cycle := 0; cycle < 4; cycle++ {
		n.Tick()
	}
	q := n.Output(0)
	for q.Len() > 0 {
		seen[q.Pop(VCMem).SM] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin served %d distinct inputs over 4 cycles, want 4", len(seen))
	}
}

// TestVC1HeadOfLineBlocking reproduces the Fig. 7a failure mode: a PIM
// request stuck at the head of a shared queue (its channel's output is
// full of PIM work) blocks a MEM request behind it even though the MEM
// request's path is free.
func TestVC1HeadOfLineBlocking(t *testing.T) {
	cfg := smallCfg(config.VC1)
	n := New(cfg)
	// Fill channel 0's output queue with PIM traffic from SM 1.
	for i := 0; i < cfg.NoC.BufferSize; i++ {
		if !n.Inject(1, pim(0)) {
			t.Fatal("prefill inject refused")
		}
		n.Tick()
	}
	if n.Output(0).Len() != cfg.NoC.BufferSize {
		t.Fatalf("prefill: output len %d", n.Output(0).Len())
	}
	// SM 0: PIM to the congested channel 0, then MEM to free channel 3.
	n.Inject(0, pim(0))
	m := mem(3)
	n.Inject(0, m)
	for i := 0; i < 10; i++ {
		n.Tick()
	}
	if n.Output(3).Len() != 0 {
		t.Error("VC1: MEM request overtook a blocked PIM head in a shared FIFO")
	}
}

// TestVC2AvoidsHeadOfLineBlocking is the same scenario under VC2: the MEM
// request rides its own virtual channel past the blocked PIM head
// (Fig. 7b).
func TestVC2AvoidsHeadOfLineBlocking(t *testing.T) {
	cfg := smallCfg(config.VC2)
	n := New(cfg)
	for i := 0; i < cfg.NoC.BufferSize/2; i++ {
		if !n.Inject(1, pim(0)) {
			t.Fatal("prefill inject refused")
		}
		n.Tick()
	}
	n.Inject(0, pim(0))
	m := mem(3)
	n.Inject(0, m)
	for i := 0; i < 10; i++ {
		n.Tick()
	}
	if n.Output(3).Len() != 1 {
		t.Error("VC2: MEM request still blocked behind PIM head")
	}
}

func TestInjectRefusedWhenPortFull(t *testing.T) {
	cfg := smallCfg(config.VC1)
	n := New(cfg)
	for i := 0; i < cfg.GPU.InjectQueue; i++ {
		if !n.Inject(0, mem(0)) {
			t.Fatalf("inject %d refused below capacity", i)
		}
	}
	if n.Inject(0, mem(0)) {
		t.Error("inject accepted past port capacity")
	}
	if n.CanInject(0, request.MemRead) {
		t.Error("CanInject true on a full port")
	}
}

// TestInjectPanicsOnUnroutableChannel: a flit for a channel the crossbar
// does not have would head-of-line block its port forever, so Inject
// refuses it loudly, naming the request.
func TestInjectPanicsOnUnroutableChannel(t *testing.T) {
	cfg := smallCfg(config.VC1)
	for _, ch := range []int{-1, cfg.Memory.Channels} {
		n := New(cfg)
		r := mem(ch)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			n.Inject(0, r)
			return ""
		}()
		if !strings.Contains(msg, r.String()) {
			t.Errorf("Inject with channel %d: panic %q does not name the request %v", ch, msg, r)
		}
		if n.InFlits() != 0 {
			t.Errorf("Inject with channel %d buffered the flit", ch)
		}
	}
}

func TestPerLinkVCAlternation(t *testing.T) {
	cfg := smallCfg(config.VC2)
	n := New(cfg)
	// One input holds both MEM and PIM traffic to the same channel; the
	// modified iSlip must alternate VCs on the link.
	var order []request.Kind
	n.Inject(0, pim(2))
	n.Inject(0, pim(2))
	n.Inject(0, mem(2))
	n.Inject(0, mem(2))
	for i := 0; i < 4; i++ {
		n.Tick()
		q := n.Output(2)
		for _, vc := range []VCID{VCMem, VCPim} {
			for q.LenVC(vc) > 0 {
				order = append(order, q.Pop(vc).Kind)
			}
		}
	}
	if len(order) != 4 {
		t.Fatalf("delivered %d of 4", len(order))
	}
	// Strict alternation: no kind appears twice in a row.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Errorf("VCs not alternating: %v", order)
			break
		}
	}
}
