// Package cache provides the content-addressed artifact cache behind the
// rpserved exploration service: a bounded, concurrency-deduplicating
// memoization table keyed by content digests (see trace.Digest). The paper's
// amortization argument — pay the simulate/analyze setup once, then answer
// thousands of design-point queries for nearly free — is made literal across
// requests here: the first job for a trace builds the one input its engine
// reads — the representative-stack set of an RpStacks job, the dependence
// graph of a graph job — and every later job for the same content reuses
// it and only re-weights stacks or re-walks the graph.
//
// Semantics:
//   - a value is computed at most once per key, even under concurrent
//     requests: later callers block on the first builder (single-flight);
//   - failed builds are never cached, so a transient error does not poison
//     the key;
//   - beyond the configured capacity the least-recently-used completed
//     entry is evicted (in-flight builds are never evicted);
//   - the table keeps the counters /metrics exports: hits, misses,
//     failures, evictions, and the cumulative setup time hits avoided.
package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// entry is one memoized value. ready is closed when the build finishes;
// val, cost and err are immutable afterwards.
type entry[V any] struct {
	ready   chan struct{}
	val     V
	cost    time.Duration
	err     error
	done    bool          // guarded by Cache.mu; true once the build result is recorded
	lastUse atomic.Uint64 // recency tick for LRU eviction
}

// Cache is a bounded single-flight memoization table. The zero value is not
// usable; construct with New.
type Cache[V any] struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*entry[V]

	tick                              atomic.Uint64
	hits, misses, failures, evictions atomic.Uint64
	savedNS                           atomic.Int64
}

// New returns a cache holding at most capacity completed entries; a
// non-positive capacity means unbounded.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{capacity: capacity, entries: make(map[string]*entry[V])}
}

// GetOrCompute returns the value cached under key, building it with build
// on the first request. Concurrent callers for the same key share one build:
// exactly one runs build, the rest block until it finishes. build returns
// the value plus the setup cost to record for the entry — the duration
// added to the saved-setup counter every time a later request hits it.
//
// The second return reports whether the call was served from a completed
// cache entry (true) or paid for the build itself, by running it or by
// waiting on the builder (false). Build errors are returned to every caller
// sharing the flight and leave the key uncached.
func (c *Cache[V]) GetOrCompute(key string, build func() (V, time.Duration, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		hit := e.done
		e.lastUse.Store(c.tick.Add(1))
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			var zero V
			return zero, false, e.err
		}
		c.hits.Add(1)
		if hit {
			// Only a completed entry truly saves the setup time; a caller
			// that joined an in-flight build waited the build out.
			c.savedNS.Add(int64(e.cost))
		}
		return e.val, hit, nil
	}
	e := &entry[V]{ready: make(chan struct{})}
	e.lastUse.Store(c.tick.Add(1))
	c.entries[key] = e
	c.misses.Add(1)
	c.mu.Unlock()

	e.val, e.cost, e.err = build()
	close(e.ready)

	c.mu.Lock()
	if e.err != nil {
		c.failures.Add(1)
		delete(c.entries, key)
	} else {
		e.done = true
		c.evict()
	}
	c.mu.Unlock()
	if e.err != nil {
		var zero V
		return zero, false, e.err
	}
	return e.val, false, nil
}

// evict removes least-recently-used completed entries until the table fits
// its capacity. Called with mu held.
func (c *Cache[V]) evict() {
	for c.capacity > 0 && len(c.entries) > c.capacity {
		var victim string
		oldest := ^uint64(0)
		for k, e := range c.entries {
			if e.done && e.lastUse.Load() < oldest {
				oldest = e.lastUse.Load()
				victim = k
			}
		}
		if victim == "" {
			return // everything else is in flight; allow transient overshoot
		}
		delete(c.entries, victim)
		c.evictions.Add(1)
	}
}

// Len returns the number of entries currently in the table, including
// in-flight builds.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries    int
	Hits       uint64
	Misses     uint64
	Failures   uint64
	Evictions  uint64
	SavedSetup time.Duration
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Entries:    c.Len(),
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Failures:   c.failures.Load(),
		Evictions:  c.evictions.Load(),
		SavedSetup: time.Duration(c.savedNS.Load()),
	}
}
