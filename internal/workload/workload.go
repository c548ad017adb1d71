// Package workload synthesizes the memory request streams of the paper's
// benchmarks: the twenty Rodinia GPU kernels (G1-G20, Table II) and the
// nine PIM kernels (P1-P9, Table III).
//
// The original evaluation executes the CUDA binaries on GPGPU-Sim; that
// substrate is unavailable here, so each benchmark is replaced by a
// profile-driven generator calibrated to the characterization in Fig. 4
// and Sec. IV (see DESIGN.md for the substitution argument). A GPU profile
// fixes the request count, issue intensity, number of concurrent address
// streams, row locality, temporal reuse (which the L2 converts into hits),
// footprint, and read fraction; a PIM profile fixes the block structure of
// Sec. II-B — segments of row-local lockstep operations sized in multiples
// of the per-bank register file.
package workload

import (
	"math/rand"

	"repro/internal/addrmap"
	"repro/internal/request"
)

// Generator produces the request stream of one kernel, partitioned into
// slots (one slot per SM the kernel runs on). Implementations are
// deterministic for a given seed.
type Generator interface {
	// Next returns the slot's next request, or nil when the slot's
	// share of the kernel is exhausted.
	Next(slot int) *request.Request
	// Total returns the kernel's total request count across all slots.
	Total() int
	// Reset rewinds all slots for a fresh kernel launch with the given
	// seed.
	Reset(seed int64)
	// Slots returns the number of SM slots the generator was built for.
	Slots() int
}

// GPUProfile is the synthetic model of one Rodinia kernel.
type GPUProfile struct {
	// ID is the paper's tag ("G1".."G20"); Name the benchmark name.
	ID, Name string
	// Desc summarizes the paper's Table II input size.
	Desc string

	// Requests is the kernel's total MEM request count at scale 1.
	Requests int
	// Interval is the mean GPU cycles between issue slots per SM; small
	// values are memory intensive, large values compute intensive.
	Interval int
	// Streams is the number of concurrent address streams per SM; more
	// streams touch more banks concurrently (higher BLP).
	Streams int
	// Locality is the probability that a stream's next access continues
	// sequentially (32 B stride) instead of jumping, controlling the
	// DRAM row-buffer hit rate.
	Locality float64
	// Reuse is the probability that an access re-references shared
	// data; the caches convert reuse into hits. By default reuse draws
	// from the SM's ReuseWindow most recent lines (default 128 = 4 KB,
	// L1-resident). When HotBytes is set, reuse instead draws uniformly
	// from a hot region of that size at the start of the footprint —
	// sized above the per-SM L1 but within the L2, this produces the
	// "heavy interconnect traffic filtered by the L2" signature the
	// paper ascribes to G19.
	Reuse       float64
	ReuseWindow int
	HotBytes    uint64
	// Footprint is the kernel's working-set size in bytes.
	Footprint uint64
	// ReadFrac is the fraction of loads (the rest are stores).
	ReadFrac float64
	// MaxOutstanding overrides the per-SM in-flight window when > 0.
	MaxOutstanding int
}

// gpuStream is one address stream of one SM slot.
type gpuStream struct {
	cur  uint64 // current byte address (line aligned)
	base uint64 // footprint base for this kernel
}

type gpuSlot struct {
	rng     *rand.Rand
	streams []gpuStream
	history []uint64 // recent line addresses for reuse
	hIdx    int
	next    int // round-robin stream index
	left    int // requests remaining in this slot
}

// GPUGen generates a GPU kernel's MEM requests.
type GPUGen struct {
	prof   GPUProfile
	mapper addrmap.Mapper
	app    int
	smIDs  []int
	slots  []gpuSlot
	total  int
	nextID *uint64
	pool   *request.Pool // nil: Next allocates
	base   uint64        // region base: co-running kernels get disjoint regions
	lines  uint64        // footprint size in access-granularity lines
}

// NewGPUGen builds a generator that splits prof's requests across the
// given SMs. scale multiplies the request count; base places the kernel's
// footprint (co-executing kernels under MPS have separate address spaces,
// modeled as disjoint regions); ids supplies the global request ID counter
// shared by all generators of a run.
func NewGPUGen(prof GPUProfile, m addrmap.Mapper, smIDs []int, app int, base uint64, seed int64, scale float64, ids *uint64) *GPUGen {
	total := int(float64(prof.Requests) * scale)
	if total < len(smIDs) {
		total = len(smIDs)
	}
	geom := m.Geometry()
	footprint := prof.Footprint
	if base >= geom.TotalBytes() {
		base = 0
	}
	if avail := geom.TotalBytes() - base; footprint > avail {
		footprint = avail
	}
	lines := footprint / uint64(geom.AccessBytes)
	if lines == 0 {
		lines = 1
	}
	history := prof.ReuseWindow
	if history <= 0 {
		history = 128
	}
	g := &GPUGen{
		prof:   prof,
		mapper: m,
		app:    app,
		smIDs:  smIDs,
		total:  total,
		nextID: ids,
		base:   base,
		lines:  lines,
		slots:  make([]gpuSlot, len(smIDs)),
	}
	for i := range g.slots {
		s := &g.slots[i]
		s.rng = rand.New(rand.NewSource(slotSeed(seed, i)))
		s.streams = make([]gpuStream, prof.Streams)
		s.history = make([]uint64, 0, history)
	}
	g.rewind()
	return g
}

// slotSeed is the seed of slot i's source for a launch at seed.
func slotSeed(seed int64, i int) int64 { return seed + int64(i)*7919 }

// SetPool makes Next draw its requests from p (nil: allocate each one).
// Whoever retires the requests returns them to p.
func (g *GPUGen) SetPool(p *request.Pool) { g.pool = p }

// Slots implements Generator.
func (g *GPUGen) Slots() int { return len(g.smIDs) }

// Total implements Generator.
func (g *GPUGen) Total() int { return g.total }

// Reset implements Generator. Slot state is rewound in place: a kernel
// relaunches on every co-execution loop, and a slot's rand.Rand alone is
// 4.9 KB. Seeding an existing source yields the same stream as a fresh
// rand.New(rand.NewSource(seed)).
func (g *GPUGen) Reset(seed int64) {
	for i := range g.slots {
		g.slots[i].rng.Seed(slotSeed(seed, i))
	}
	g.rewind()
}

// rewind restarts every slot from its freshly seeded source: request
// quota, stream starts and reuse history.
func (g *GPUGen) rewind() {
	n := len(g.smIDs)
	per := g.total / n
	extra := g.total - per*n
	geom := g.mapper.Geometry()
	for i := range g.slots {
		s := &g.slots[i]
		s.left = per
		if i < extra {
			s.left++
		}
		for j := range s.streams {
			start := uint64(s.rng.Int63n(int64(g.lines))) * uint64(geom.AccessBytes)
			s.streams[j] = gpuStream{cur: start}
		}
		s.history = s.history[:0]
		s.hIdx, s.next = 0, 0
	}
}

// Next implements Generator.
func (g *GPUGen) Next(slot int) *request.Request {
	s := &g.slots[slot]
	if s.left == 0 {
		return nil
	}
	s.left--
	geom := g.mapper.Geometry()

	var offset uint64
	switch {
	case g.prof.HotBytes > 0 && s.rng.Float64() < g.prof.Reuse:
		hotLines := g.prof.HotBytes / uint64(geom.AccessBytes)
		if hotLines > g.lines {
			hotLines = g.lines
		}
		offset = uint64(s.rng.Int63n(int64(hotLines))) * uint64(geom.AccessBytes)
	case g.prof.HotBytes == 0 && len(s.history) > 0 && s.rng.Float64() < g.prof.Reuse:
		offset = s.history[s.rng.Intn(len(s.history))]
	default:
		st := &s.streams[s.next]
		s.next = (s.next + 1) % len(s.streams)
		if s.rng.Float64() < g.prof.Locality {
			st.cur += uint64(geom.AccessBytes)
			if st.cur >= g.lines*uint64(geom.AccessBytes) {
				st.cur = 0
			}
		} else {
			st.cur = uint64(s.rng.Int63n(int64(g.lines))) * uint64(geom.AccessBytes)
		}
		offset = st.cur
	}
	addr := g.base + offset

	if len(s.history) < cap(s.history) {
		s.history = append(s.history, offset)
	} else {
		s.history[s.hIdx] = offset
		s.hIdx = (s.hIdx + 1) % len(s.history)
	}

	kind := request.MemRead
	if s.rng.Float64() >= g.prof.ReadFrac {
		kind = request.MemWrite
	}
	c := g.mapper.Decode(addr)
	id := *g.nextID
	*g.nextID = id + 1
	r := g.pool.Get()
	r.ID = id
	r.Kind = kind
	r.Addr = addr
	r.Channel, r.Bank, r.Row, r.Col = c.Channel, c.Bank, c.Row, c.Col
	r.SM = g.smIDs[slot]
	r.App = g.app
	return r
}
