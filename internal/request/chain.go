package request

import "repro/internal/invariant"

// Chain is a FIFO of requests linked through the requests themselves, so
// parking a request in one costs no allocation and no capacity to grow:
// the MSHR merge lists (internal/cache), the slots of the response
// calendar (internal/sim) and the controllers' PIM queues
// (internal/memctrl) are chains. A request is in at most one chain at
// a time; simdebug builds assert it on Push and on Pool.Put. The zero
// Chain is empty and ready to use; a Chain is a value, so a holder may
// take one whole by copying it and resetting its own to the zero value.
type Chain struct {
	head, tail *Request
	n          int
}

// Len returns how many requests the chain holds.
func (c *Chain) Len() int { return c.n }

// Head returns the request at the head without removing it; nil when the
// chain is empty.
func (c *Chain) Head() *Request { return c.head }

// Push appends r at the tail. r must be in no chain.
func (c *Chain) Push(r *Request) {
	if invariant.Enabled {
		invariant.Assert(!r.linked, "request chain: %v pushed while already in a chain", r) //pimlint:coldpath — simdebug builds only
		r.linked = true
	}
	if c.tail == nil {
		c.head = r
	} else {
		c.tail.next = r
	}
	c.tail = r
	c.n++
}

// Pop removes and returns the head, unlinked; nil when the chain is empty.
func (c *Chain) Pop() *Request {
	r := c.head
	if r == nil {
		return nil
	}
	c.head = r.next
	if c.head == nil {
		c.tail = nil
	}
	r.next = nil
	r.linked = false
	c.n--
	return r
}
