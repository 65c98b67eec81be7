// Package cache is the content-addressed artifact cache at the core of
// the commuted serving layer. Programs are keyed by the SHA-256 of
// their (source, dialect options) pair — commute.Fingerprint — and a
// hit reuses the loaded *commute.System, skipping parse, type check,
// commutativity analysis and codegen entirely, and, once a run has
// built it, the System's interpreter code.
//
// Two production properties:
//
//   - Singleflight loading: N concurrent first requests for one key
//     cost one load; the N-1 waiters block on the loader's entry and
//     share its result (or its error — failed loads are not cached).
//
//   - Bounded memory: entries carry a byte-size estimate and an LRU
//     list; inserting past the budget evicts cold entries. An evicted
//     System stays valid for the requests still using it, and the
//     garbage collector frees it, code and all, after the last one.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"commute"
)

// Cache is a content-addressed LRU of loaded systems. The zero value is
// not usable; call New.
type Cache struct {
	mu      sync.Mutex
	max     int64 // byte budget (<=0: unbounded)
	bytes   int64
	entries map[string]*entry
	ll      *list.List // front = most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type entry struct {
	key   string
	elem  *list.Element
	bytes int64

	ready chan struct{} // closed once the load completes
	built bool          // guarded by Cache.mu; true once ready is closed
	sys   *commute.System
	err   error
}

// New returns a cache bounded to maxBytes (<=0: unbounded).
func New(maxBytes int64) *Cache {
	return &Cache{
		max:     maxBytes,
		entries: make(map[string]*entry),
		ll:      list.New(),
	}
}

// Peek returns key's system when it is already loaded, without
// triggering a load or blocking on one in flight. It lets the serving
// layer prefer the warm in-memory system over the blob tier while
// falling through to artifact adoption (rather than a full pipeline
// run) when the system is absent.
func (c *Cache) Peek(key string) (*commute.System, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.built || e.err != nil {
		return nil, false
	}
	c.ll.MoveToFront(e.elem)
	c.hits.Add(1)
	return e.sys, true
}

// GetOrLoad returns the system for key, loading it with load on a
// miss. load returns the system and its retained-size estimate in
// bytes. hit reports whether this request was served without running
// load (a cached entry, or a singleflight wait on a concurrent loader).
// On error no entry is cached and the error is shared with every
// concurrent waiter.
func (c *Cache) GetOrLoad(key string, load func() (*commute.System, int64, error)) (sys *commute.System, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.ll.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The loader failed; it already removed the entry.
			return nil, true, e.err
		}
		c.hits.Add(1)
		return e.sys, true, nil
	}

	// Miss: this goroutine is the loader.
	e := &entry{key: key, ready: make(chan struct{})}
	e.elem = c.ll.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	sys, size, lerr := load()

	c.mu.Lock()
	if lerr != nil {
		e.err = lerr
		c.removeLocked(e)
		e.built = true
		close(e.ready)
		c.mu.Unlock()
		return nil, false, lerr
	}
	e.sys, e.bytes = sys, size
	c.bytes += size
	e.built = true
	close(e.ready)
	c.evictOverBudgetLocked()
	c.mu.Unlock()
	return sys, false, nil
}

// removeLocked unlinks an entry from the index and LRU list.
func (c *Cache) removeLocked(e *entry) {
	if e.elem != nil {
		c.ll.Remove(e.elem)
		e.elem = nil
	}
	delete(c.entries, e.key)
}

// evictOverBudgetLocked evicts cold built entries until the budget is
// met. Entries still loading are skipped.
func (c *Cache) evictOverBudgetLocked() {
	if c.max <= 0 {
		return
	}
	for c.bytes > c.max {
		var victim *entry
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if cand := el.Value.(*entry); cand.built {
				victim = cand
				break
			}
		}
		if victim == nil {
			return // everything left is loading
		}
		c.bytes -= victim.bytes
		c.removeLocked(victim)
		c.evictions.Add(1)
	}
}

// Stats is a counter snapshot.
type Stats struct {
	Hits, Misses, Evictions int64
	Entries                 int64
	Bytes                   int64
}

// Snapshot returns the cache's current counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	entries := int64(len(c.entries))
	bytes := c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}
