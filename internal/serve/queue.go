package serve

import (
	"errors"
	"sync"

	"repro/internal/telemetry"
)

// Push failure modes: a full class sheds load (HTTP 429 + Retry-After
// upstream), a closed queue means shutdown (HTTP 503).
var (
	errQueueFull   = errors.New("serve: queue full")
	errQueueClosed = errors.New("serve: shutting down")
)

// Class is a job's priority class.
type Class int

const (
	// ClassInteractive jobs (single-cell probes) always dequeue ahead of
	// bulk traffic.
	ClassInteractive Class = iota
	// ClassBulk jobs (sweep/campaign traffic) run when no interactive
	// work is queued.
	ClassBulk
)

// String names the class as the API spells it.
func (c Class) String() string {
	if c == ClassBulk {
		return PriorityBulk
	}
	return PriorityInteractive
}

// jobFIFO is an amortized O(1) pop-front queue.
type jobFIFO struct {
	buf  []*Job
	head int
}

func (f *jobFIFO) push(j *Job) { f.buf = append(f.buf, j) }

func (f *jobFIFO) pop() *Job {
	if f.head == len(f.buf) {
		return nil
	}
	j := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	if f.head > 64 && f.head*2 > len(f.buf) {
		f.buf = append(f.buf[:0], f.buf[f.head:]...)
		f.head = 0
	}
	return j
}

func (f *jobFIFO) len() int { return len(f.buf) - f.head }

// queue is the two-class priority job queue feeding the worker pool:
// strict priority between classes, FIFO within a class, and a bounded
// per-class admission depth — beyond it Push sheds the job instead of
// queueing unboundedly. Close switches it to drain mode — Pop keeps
// returning queued jobs until empty, then reports closed — so shutdown
// marks every queued job instead of leaking it.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	cls    [2]jobFIFO
	limit  [2]int

	enqueued, dequeued telemetry.Counter
	shed               [2]telemetry.Counter
}

func newQueue(limits [2]int) *queue {
	q := &queue{limit: limits}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a job. It fails with errQueueFull when the job's class
// is at its admission limit (the caller sheds with 429 + Retry-After)
// and errQueueClosed after Close.
func (q *queue) Push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	if lim := q.limit[j.Class]; lim > 0 && q.cls[j.Class].len() >= lim {
		q.shed[j.Class].Inc()
		return errQueueFull
	}
	q.cls[j.Class].push(j)
	q.enqueued.Inc()
	q.cond.Signal()
	return nil
}

// Shed returns the per-class shed-request counts.
func (q *queue) Shed() (interactive, bulk uint64) {
	return q.shed[ClassInteractive].Value(), q.shed[ClassBulk].Value()
}

// Pop blocks for the next job, interactive first. After Close it drains
// the remaining jobs and then reports ok == false.
func (q *queue) Pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for cls := range q.cls {
			if j := q.cls[cls].pop(); j != nil {
				q.dequeued.Inc()
				return j, true
			}
		}
		if q.closed {
			return nil, false
		}
		// Cond.Wait atomically releases q.mu while asleep and reacquires
		// it on wake — the lock is not actually held across the block,
		// and Close broadcasts under the same condition, so Pop cannot
		// miss the shutdown wake.
		q.cond.Wait()
	}
}

// Close stops accepting jobs and wakes every blocked Pop.
func (q *queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Depths returns the instantaneous per-class backlog.
func (q *queue) Depths() (interactive, bulk int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cls[ClassInteractive].len(), q.cls[ClassBulk].len()
}
