package request

import "repro/internal/invariant"

// slabRequests is how many requests the pool allocates at once when its
// free list is empty. A run's live population is bounded by its queues,
// MSHRs and outstanding windows (a few thousand at paper scale), so a
// handful of slabs covers it and growth stops after warm-up.
const slabRequests = 256

// Pool is one simulation's request free list. Get hands out a zeroed
// request, Put takes it back at the end of its life; reuse is LIFO and
// growth is by fixed slabs, so which object backs which request is a
// pure function of the Get/Put sequence — the run stays deterministic
// and nothing is shared between Systems (no sync.Pool: its per-P caches
// and GC-driven eviction would make object identity host-dependent).
//
// A nil *Pool is valid, like the telemetry and fault handles: Get
// allocates a fresh request and Put is a no-op, so generators and cache
// slices built without a pool (unit tests, layer drivers that keep every
// request) behave as they did before pooling.
type Pool struct {
	// free is the stack of released requests, nfree deep: entry i is
	// free[i/slabRequests][i%slabRequests]. It grows a slab-sized chunk
	// at a time and never moves what it holds, so it needs no more chunks
	// than the pool has slabs and Put copies nothing as it grows.
	free  []*[slabRequests]*Request
	nfree int
	slab  []Request // unissued tail of the newest slab
	live  int
}

// NewPool returns an empty pool; it grows on demand.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed request owned by the caller until Put.
func (p *Pool) Get() *Request {
	if p == nil {
		return new(Request) //pimlint:coldpath — no pool attached: allocate as before pooling
	}
	p.live++
	if p.nfree > 0 {
		p.nfree--
		c, i := p.free[p.nfree/slabRequests], p.nfree%slabRequests
		r := c[i]
		c[i] = nil
		*r = Request{}
		return r
	}
	if len(p.slab) == 0 {
		p.slab = make([]Request, slabRequests) //pimlint:coldpath — growth; stops once the live population peaks
	}
	r := &p.slab[0]
	p.slab = p.slab[1:]
	return r
}

// Put returns r to the free list. The caller must hold the last
// reference: after Put the object backs some later request. Under the
// simdebug tag a second Put of the same object panics and the released
// request is poisoned, so a stale holder fails on its next use (bad
// kind, out-of-range coordinates) instead of silently reading another
// request's fields.
func (p *Pool) Put(r *Request) {
	if p == nil {
		return
	}
	if invariant.Enabled {
		invariant.Assert(!r.released, "request pool: double release of %v", r)
		invariant.Assert(!r.linked, "request pool: release of %v while it is in a chain", r)
		*r = Request{ID: ^uint64(0), Kind: poisonKind, Channel: -1, Bank: -1, SM: -1, App: -1}
	}
	r.released = true
	p.live--
	if p.nfree == len(p.free)*slabRequests {
		p.free = append(p.free, new([slabRequests]*Request)) //pimlint:coldpath — growth; one chunk per slab at most
	}
	p.free[p.nfree/slabRequests][p.nfree%slabRequests] = r
	p.nfree++
}

// Live returns how many requests are out (Get minus Put); 0 on nil.
func (p *Pool) Live() int {
	if p == nil {
		return 0
	}
	return p.live
}

// poisonKind marks a released request in simdebug builds; no component
// accepts it.
const poisonKind Kind = 0xFF

// AssertLive panics under the simdebug tag when r has been returned to
// its pool; where names the checkpoint. Free in release builds.
func (r *Request) AssertLive(where string) {
	if invariant.Enabled {
		invariant.Assert(!r.released, "%s: use of released request (poisoned id %#x)", where, r.ID) //pimlint:coldpath — simdebug builds only
	}
}
