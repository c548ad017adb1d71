package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/telemetry"
)

// Cache is the content-addressed result cache with single-flight
// deduplication: one entry per canonical-request digest, holding either
// an in-flight computation (waiters block on it) or the finished result
// bytes. Completed entries are bounded by an LRU of max entries;
// in-flight entries are never evicted.
//
// Caching results by config digest is sound because the simulator is
// deterministic: identical canonical configs produce bit-identical
// results (the double-run determinism gate and the tick/event
// differential gate in docs/DETERMINISM.md are the standing proof).
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*Entry
	lru     *list.List // completed entries, most recently used at front

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	joins     *telemetry.Counter
	evictions *telemetry.Counter
	warmed    *telemetry.Counter
	warmHits  *telemetry.Counter
}

// Entry is one cache cell. The owner (the Lookup caller that got
// OutcomeMiss) resolves it exactly once with Fulfill or Abandon; everyone
// else waits on it.
type Entry struct {
	digest string
	done   chan struct{}
	result []byte
	err    error
	elem   *list.Element
	// warm marks an entry seeded from the persistent store at boot
	// rather than computed in this process's lifetime.
	warm bool
}

// Outcome classifies a cache lookup.
type Outcome int

const (
	// OutcomeMiss means the caller owns a fresh in-flight entry and MUST
	// resolve it with Fulfill or Abandon.
	OutcomeMiss Outcome = iota
	// OutcomeHit means the entry's result is ready.
	OutcomeHit
	// OutcomeJoin means another request is computing this digest; wait
	// on the entry.
	OutcomeJoin
)

// NewCache builds a cache bounded to max completed entries (<= 0 picks
// 4096), registering its counters in reg.
func NewCache(max int, reg *telemetry.Registry) *Cache {
	if max <= 0 {
		max = 4096
	}
	return &Cache{
		max:       max,
		entries:   make(map[string]*Entry),
		lru:       list.New(),
		hits:      reg.Counter("serve/cache_hits"),
		misses:    reg.Counter("serve/cache_misses"),
		joins:     reg.Counter("serve/cache_joins"),
		evictions: reg.Counter("serve/cache_evictions"),
		warmed:    reg.Counter("serve/cache_warm_loaded"),
		warmHits:  reg.Counter("serve/cache_warm_hits"),
	}
}

// Seed inserts a completed entry loaded from the persistent store. It
// refuses digests already present (completed or in flight: a miss that
// raced ahead of the warm load and is already computing wins —
// determinism makes the recomputation byte-identical, so nothing is
// lost but the cycles).
// Seeded entries join the LRU like any other completed entry and count
// toward the bound.
func (c *Cache) Seed(digest string, result []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[digest]; exists {
		return false
	}
	e := &Entry{digest: digest, done: make(chan struct{}), result: result, warm: true}
	close(e.done)
	c.entries[digest] = e
	c.completeLocked(e)
	c.warmed.Inc()
	return true
}

// completeLocked puts a completed entry at the front of the LRU and
// evicts the oldest completed entries beyond the bound.
func (c *Cache) completeLocked(e *Entry) {
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*Entry).digest)
		c.evictions.Inc()
	}
}

// Lookup returns the entry for digest and how the caller relates to it:
// ready (hit), in flight (join), or newly created and owned (miss).
func (c *Cache) Lookup(digest string) (*Entry, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[digest]; e != nil {
		select {
		case <-e.done:
			// A resolved entry still in the map is always a fulfilled
			// one: Abandon removes the entry before closing done.
			c.hits.Inc()
			if e.warm {
				c.warmHits.Inc()
			}
			c.lru.MoveToFront(e.elem)
			return e, OutcomeHit
		default:
			c.joins.Inc()
			return e, OutcomeJoin
		}
	}
	e := &Entry{digest: digest, done: make(chan struct{})}
	c.entries[digest] = e
	c.misses.Inc()
	return e, OutcomeMiss
}

// Fulfill resolves an owned entry with its result bytes, inserts it into
// the LRU, and evicts the oldest completed entries beyond the bound.
func (c *Cache) Fulfill(e *Entry, result []byte) {
	c.mu.Lock()
	e.result = result
	c.completeLocked(e)
	c.mu.Unlock()
	close(e.done)
}

// Abandon resolves an owned entry with an error and forgets it, so the
// next request for the same digest recomputes instead of caching the
// failure. Waiters joined to the entry receive err.
func (c *Cache) Abandon(e *Entry, err error) {
	c.mu.Lock()
	if c.entries[e.digest] == e {
		delete(c.entries, e.digest)
	}
	e.err = err
	c.mu.Unlock()
	close(e.done)
}

// Wait blocks until the entry resolves or ctx is done, returning the
// result bytes or the resolution/context error.
func (e *Entry) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-e.done:
		return e.result, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns a ready entry's bytes (call only after OutcomeHit or a
// successful Wait).
func (e *Entry) Result() []byte { return e.result }

// CacheStats is a point-in-time cache summary.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Joins     uint64 `json:"joins"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Inflight  int    `json:"inflight"`
	// HitRate counts both ready hits and single-flight joins as served
	// from the cache: neither ran a new simulation.
	HitRate float64 `json:"hit_rate"`
	// WarmLoaded counts entries seeded from the persistent store at
	// boot; WarmHits counts lookups served by them, and WarmHitRate is
	// WarmHits over all lookups — the warm-start effectiveness the
	// chaos-recovery gate asserts on.
	WarmLoaded  uint64  `json:"warm_loaded"`
	WarmHits    uint64  `json:"warm_hits"`
	WarmHitRate float64 `json:"warm_hit_rate"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	completed := c.lru.Len()
	inflight := len(c.entries) - completed
	c.mu.Unlock()
	s := CacheStats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Joins:      c.joins.Value(),
		Evictions:  c.evictions.Value(),
		Entries:    completed,
		Inflight:   inflight,
		WarmLoaded: c.warmed.Value(),
		WarmHits:   c.warmHits.Value(),
	}
	if total := s.Hits + s.Misses + s.Joins; total > 0 {
		s.HitRate = float64(s.Hits+s.Joins) / float64(total)
		s.WarmHitRate = float64(s.WarmHits) / float64(total)
	}
	return s
}
