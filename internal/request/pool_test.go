package request

import (
	"testing"

	"repro/internal/invariant"
)

func TestNilPoolAllocates(t *testing.T) {
	var p *Pool
	a, b := p.Get(), p.Get()
	if a == nil || b == nil || a == b {
		t.Fatalf("nil pool Get returned %p, %p; want two fresh requests", a, b)
	}
	if *a != (Request{}) {
		t.Errorf("nil pool Get returned a non-zero request: %+v", *a)
	}
	p.Put(a) // no-op, must not panic
	if p.Live() != 0 {
		t.Errorf("nil pool Live = %d, want 0", p.Live())
	}
}

// TestPoolReuseIsLIFO pins the reuse order: which object backs which
// request must be a function of the Get/Put sequence alone.
func TestPoolReuseIsLIFO(t *testing.T) {
	p := NewPool()
	a, b, c := p.Get(), p.Get(), p.Get()
	a.ID, b.ID, c.ID = 1, 2, 3
	c.SetPIM(PIMInfo{Op: PIMStore, RFEntry: 5, Block: 9})
	p.Put(a)
	p.Put(c)
	if p.Live() != 1 {
		t.Fatalf("Live = %d after 3 Get / 2 Put, want 1", p.Live())
	}
	if got := p.Get(); got != c {
		t.Error("first Get after Put(a), Put(c) did not return c")
	} else if *got != (Request{}) {
		t.Errorf("recycled request not zeroed: %+v", *got)
	}
	if got := p.Get(); got != a {
		t.Error("second Get did not return a")
	}
	if got := p.Get(); got == a || got == b || got == c {
		t.Error("Get with an empty free list returned an object already out")
	}
	if p.Live() != 4 {
		t.Errorf("Live = %d, want 4", p.Live())
	}
}

// TestPoolGrowsWhenNothingIsReleased covers the layer drivers' use: a
// caller that keeps every request and never calls Put.
func TestPoolGrowsWhenNothingIsReleased(t *testing.T) {
	p := NewPool()
	const n = 3*slabRequests + 7
	seen := make(map[*Request]bool, n)
	for i := 0; i < n; i++ {
		r := p.Get()
		if seen[r] {
			t.Fatalf("Get %d returned an object that is still out", i)
		}
		seen[r] = true
		r.ID = uint64(i)
	}
	if p.Live() != n {
		t.Errorf("Live = %d, want %d", p.Live(), n)
	}
}

// TestPoolFreeListGrowsWithSlabs: releasing every request a pool has made
// fills one free-list chunk per slab, no more, and reuse stays LIFO
// across the chunk boundaries.
func TestPoolFreeListGrowsWithSlabs(t *testing.T) {
	p := NewPool()
	const n = 3*slabRequests + 7
	out := make([]*Request, n)
	for i := range out {
		out[i] = p.Get()
	}
	for _, r := range out {
		p.Put(r)
	}
	if slabs := (n + slabRequests - 1) / slabRequests; len(p.free) != slabs {
		t.Errorf("%d requests released into %d free-list chunks, want one per slab (%d)", n, len(p.free), slabs)
	}
	for i := n - 1; i >= 0; i-- {
		if got := p.Get(); got != out[i] {
			t.Fatalf("Get %d after releasing all: not the request released %d-th", n-1-i, i)
		}
	}
	if p.Live() != n {
		t.Errorf("Live = %d, want %d", p.Live(), n)
	}
}

func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	p := NewPool()
	held := make([]*Request, 0, 100)
	cycle := func() {
		for i := 0; i < cap(held); i++ {
			held = append(held, p.Get())
		}
		for _, r := range held {
			p.Put(r)
		}
		held = held[:0]
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("warmed Get/Put cycle: %v allocs, want 0", avg)
	}
}

func TestSetPIMStoresInline(t *testing.T) {
	r := &Request{Kind: PIMOp}
	r.SetPIM(PIMInfo{Op: PIMCompute, RFEntry: 3, Block: 4})
	if r.PIM == nil || *r.PIM != (PIMInfo{Op: PIMCompute, RFEntry: 3, Block: 4}) {
		t.Fatalf("PIM = %+v", r.PIM)
	}
	if avg := testing.AllocsPerRun(100, func() { r.SetPIM(PIMInfo{Block: 1}) }); avg != 0 {
		t.Errorf("SetPIM: %v allocs, want 0", avg)
	}
}

// TestDoubleReleasePanicsUnderSimdebug adapts to the build it runs in,
// like invariant.TestAssert: simdebug turns a second Put and any use of
// a released request into panics; release builds pay nothing for either.
func TestDoubleReleasePanicsUnderSimdebug(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	p := NewPool()
	r := p.Get()
	r.ID, r.Bank = 42, 3
	p.Put(r)
	if invariant.Enabled && (r.ID == 42 || r.Bank >= 0) {
		t.Errorf("released request not poisoned: %+v", *r)
	}
	if got := panics(func() { r.AssertLive("test") }); got != invariant.Enabled {
		t.Errorf("AssertLive on a released request panicked=%v, want %v", got, invariant.Enabled)
	}
	if got := panics(func() { p.Put(r) }); got != invariant.Enabled {
		t.Errorf("double Put panicked=%v, want %v", got, invariant.Enabled)
	}
	live := p.Get()
	if panics(func() { live.AssertLive("test") }) {
		t.Error("AssertLive panicked on a live request")
	}
}
