//go:build simdebug

package request

import "testing"

// TestChainOwnershipAsserted: in a simdebug build a request pushed onto a
// second chain, or released to its pool while still in one, panics at
// once, where the second owner would otherwise corrupt the first's list.
func TestChainOwnershipAsserted(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	p := NewPool()
	r := p.Get()
	var a, b Chain
	a.Push(r)
	if !panics(func() { b.Push(r) }) {
		t.Error("push of a request already in a chain did not panic")
	}
	if !panics(func() { a.Push(r) }) {
		t.Error("second push onto the same chain did not panic")
	}
	if !panics(func() { p.Put(r) }) {
		t.Error("release of a request still in a chain did not panic")
	}
	if a.Pop() != r {
		t.Fatal("the chain lost its request")
	}
	if panics(func() { b.Push(r) }) {
		t.Error("push after Pop panicked")
	}
	b.Pop()
	if panics(func() { p.Put(r) }) {
		t.Error("release after the last Pop panicked")
	}
}
