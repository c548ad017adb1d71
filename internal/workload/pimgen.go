package workload

import (
	"fmt"

	"repro/internal/addrmap"
	"repro/internal/request"
)

// PIMSegment is one row-local run of lockstep operations within a block:
// Ops consecutive operations of kind Op to a single row. Ops should be a
// multiple of the per-bank register-file size ("the size of the block is
// usually a multiple of the register file size", Sec. II-B); longer
// segments raise the kernel's lockstep row locality.
type PIMSegment struct {
	Op  request.PIMOpKind
	Ops int
}

// PIMProfile is the synthetic model of one PIM kernel: the block shape
// (its segments, each to its own row) and the per-channel block count.
type PIMProfile struct {
	// ID is the paper's tag ("P1".."P9"); Name the benchmark name.
	ID, Name string
	// Desc summarizes the paper's Table III input size.
	Desc string
	// Segments is the per-block operation pattern (Fig. 3's structure).
	Segments []PIMSegment
	// Blocks is the per-channel block count at scale 1.
	Blocks int
}

// OpsPerBlock returns the lockstep operations one block performs.
func (p PIMProfile) OpsPerBlock() int {
	n := 0
	for _, s := range p.Segments {
		n += s.Ops
	}
	return n
}

// pimWarp is the request cursor of one warp, which is pinned to one
// channel by the simplified address map (Sec. III-B: "each warp maps to a
// single memory channel and each thread within a warp to a single bank").
type pimWarp struct {
	channel int
	block   int
	seg     int
	op      int
	done    bool
}

// PIMGen generates a PIM kernel's lockstep operation stream. Each SM slot
// owns WarpsPerSM warps; warp w of slot s drives channel
// s*WarpsPerSM + w. Orderlight-style ordering holds per channel because
// each warp issues its stream strictly in order and the per-channel path
// through the interconnect is a FIFO.
type PIMGen struct {
	prof      PIMProfile
	mapper    addrmap.Mapper
	app       int
	smIDs     []int
	warpsPer  int
	rfPerBank int
	blocks    int
	warps     [][]pimWarp // [slot][warp]
	rr        []int       // per-slot warp round-robin
	total     int
	nextID    *uint64
	pool      *request.Pool // nil: Next allocates
}

// NewPIMGen builds the generator. channels must equal
// len(smIDs)*warpsPerSM so every channel has exactly one warp. scale
// multiplies the per-channel block count.
func NewPIMGen(prof PIMProfile, m addrmap.Mapper, smIDs []int, warpsPerSM, rfPerBank, app int, scale float64, ids *uint64) *PIMGen {
	channels := m.Geometry().Channels
	if len(smIDs)*warpsPerSM != channels {
		panic(fmt.Sprintf("workload: %d PIM SMs x %d warps != %d channels", len(smIDs), warpsPerSM, channels))
	}
	blocks := int(float64(prof.Blocks) * scale)
	if blocks < 1 {
		blocks = 1
	}
	g := &PIMGen{
		prof:      prof,
		mapper:    m,
		app:       app,
		smIDs:     smIDs,
		warpsPer:  warpsPerSM,
		rfPerBank: rfPerBank,
		blocks:    blocks,
		total:     channels * blocks * prof.OpsPerBlock(),
		nextID:    ids,
		warps:     make([][]pimWarp, len(smIDs)),
		rr:        make([]int, len(smIDs)),
	}
	for s := range g.warps {
		g.warps[s] = make([]pimWarp, warpsPerSM)
	}
	g.Reset(0)
	return g
}

// SetPool makes Next draw its requests from p (nil: allocate each one).
// Whoever retires the requests returns them to p.
func (g *PIMGen) SetPool(p *request.Pool) { g.pool = p }

// Slots implements Generator.
func (g *PIMGen) Slots() int { return len(g.smIDs) }

// Total implements Generator.
func (g *PIMGen) Total() int { return g.total }

// Reset implements Generator. PIM streams are fully deterministic, so the
// seed is ignored.
func (g *PIMGen) Reset(int64) {
	for s := range g.warps {
		g.rr[s] = 0
		for w := range g.warps[s] {
			g.warps[s][w] = pimWarp{channel: s*g.warpsPer + w}
		}
	}
}

// Next implements Generator: round-robin across the slot's warps.
func (g *PIMGen) Next(slot int) *request.Request {
	warps := g.warps[slot]
	for k := 0; k < len(warps); k++ {
		w := &warps[(g.rr[slot]+k)%len(warps)]
		if w.done {
			continue
		}
		g.rr[slot] = (g.rr[slot] + k + 1) % len(warps)
		return g.emit(slot, w)
	}
	return nil
}

func (g *PIMGen) emit(slot int, w *pimWarp) *request.Request {
	seg := g.prof.Segments[w.seg]
	geom := g.mapper.Geometry()
	// Each segment targets its own row; rows advance deterministically
	// with the block index, wrapping within the bank.
	rowIdx := uint32((w.block*len(g.prof.Segments) + w.seg) % geom.Rows)
	col := uint32(w.op % geom.Columns)
	addr := g.mapper.Encode(addrmap.Coord{Channel: w.channel, Bank: 0, Row: rowIdx, Col: col})
	id := *g.nextID
	*g.nextID = id + 1
	req := g.pool.Get()
	req.ID = id
	req.Kind = request.PIMOp
	req.Addr = addr
	// Bank stays 0: a lockstep op executes on every bank.
	req.Channel, req.Row, req.Col = w.channel, rowIdx, col
	req.SM = g.smIDs[slot]
	req.App = g.app
	req.SetPIM(request.PIMInfo{
		Op:      seg.Op,
		RFEntry: w.op % g.rfPerBank,
		Block:   w.block,
	})
	w.op++
	if w.op >= seg.Ops {
		w.op = 0
		w.seg++
		if w.seg >= len(g.prof.Segments) {
			w.seg = 0
			w.block++
			if w.block >= g.blocks {
				w.done = true
			}
		}
	}
	return req
}
