package request

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestChainMatchesSliceModel runs random Push, Pop and drain steps on a
// Chain and on a plain slice used as a queue. A drain takes the chain
// whole, as the response calendar does with a due slot, leaves the
// holder's chain empty and pops the copy until it is empty. Every pop
// must return what the slice does, unlinked, and Len and Head must follow
// it after every step.
func TestChainMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c Chain
	var model []*Request
	var pushes, pops, drains, emptyPops int
	pop := func(step int, c *Chain) {
		got := c.Pop()
		if len(model) == 0 {
			if got != nil {
				t.Fatalf("step %d: Pop on an empty chain returned %v", step, got)
			}
			emptyPops++
			return
		}
		if got != model[0] {
			t.Fatalf("step %d: Pop returned %v, the model's head is %v", step, got, model[0])
		}
		if got.next != nil {
			t.Fatalf("step %d: popped %v still links to %v", step, got, got.next)
		}
		model = model[1:]
		pops++
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(20); {
		case op < 11:
			r := &Request{ID: uint64(step)}
			c.Push(r)
			model = append(model, r)
			pushes++
		case op < 19:
			pop(step, &c)
		default:
			due := c
			c = Chain{}
			for n := due.Len(); n > 0; n-- {
				pop(step, &due)
			}
			if due.Len() != 0 || due.Pop() != nil || len(model) != 0 {
				t.Fatalf("step %d: drained chain holds %d, model %d", step, due.Len(), len(model))
			}
			drains++
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, c.Len(), len(model))
		}
		var head *Request
		if len(model) > 0 {
			head = model[0]
		}
		if c.Head() != head {
			t.Fatalf("step %d: Head = %v, the model's head is %v", step, c.Head(), head)
		}
	}
	if pushes == 0 || pops == 0 || drains == 0 || emptyPops == 0 {
		t.Fatalf("vacuous run: %d pushes, %d pops, %d drains, %d pops on an empty chain", pushes, pops, drains, emptyPops)
	}
}

// TestPoolGetReturnsUnlinked: a recycled request comes back with no link,
// whatever the object held when it was released.
func TestPoolGetReturnsUnlinked(t *testing.T) {
	p := NewPool()
	r, other := p.Get(), p.Get()
	r.next = other
	p.Put(r)
	if got := p.Get(); got != r {
		t.Fatal("Get did not reuse the released request")
	} else if got.next != nil || got.linked {
		t.Errorf("recycled request still linked: next=%v linked=%v", got.next, got.linked)
	}
}

// TestChainAllocatesNothing: parking and releasing requests through a
// chain costs no heap object.
func TestChainAllocatesNothing(t *testing.T) {
	reqs := make([]Request, 64)
	var c Chain
	cycle := func() {
		for i := range reqs {
			c.Push(&reqs[i])
		}
		for c.Pop() != nil {
		}
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("Push/Pop cycle: %v allocs, want 0", avg)
	}
}

// TestRequestFitsSlabClass pins the request at 128 bytes, so the pool's
// 256-request slab is exactly 32 KiB, Go's largest small-object size
// class. With the chain link added as a word of its own a request is 136
// bytes, a slab 34 816 bytes, allocated as a large object, and the
// pim-only cell of TestRunAllocBudget (internal/sim) goes from 1354 to
// 1634 KiB, past its ceiling. Kind shares the word of the flag bytes
// instead, in what was padding.
func TestRequestFitsSlabClass(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 128 {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want 128", got)
	}
	if got := unsafe.Sizeof([slabRequests]Request{}); got != 32<<10 {
		t.Errorf("a slab is %d bytes, want %d", got, 32<<10)
	}
}
