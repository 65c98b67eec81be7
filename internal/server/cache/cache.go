// Package cache is the content-addressed artifact cache at the core of
// the commuted serving layer. Programs are keyed by the SHA-256 of
// their (source, dialect options) pair — commute.Fingerprint — and a
// hit reuses the loaded *commute.System, skipping parse, type check,
// commutativity analysis and codegen entirely, and, once a run has
// warmed it, the interpreter's resolution and closure compilation.
//
// Three production properties:
//
//   - Singleflight loading: N concurrent first requests for one key
//     cost one load; the N-1 waiters block on the loader's entry and
//     share its result (or its error — failed loads are not cached).
//
//   - Bounded memory: entries carry a byte-size estimate and an LRU
//     list; inserting past the budget evicts cold entries.
//
//   - Leased eviction: callers hold entries through refcounted Handles.
//     Evicting an entry removes it from the index immediately, but the
//     release hook (which tears down the program's per-program
//     resolution caches — see commute.System.Release) runs only when
//     the last lease closes. A release must follow the program's last
//     execution: an execution that starts after it resolves the program
//     into interp's process-wide cache again, and nothing would release
//     that copy.
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

	// onRelease runs when an evicted entry's last lease closes (and
	// immediately at eviction for unleased entries).
	onRelease func(*commute.System)
}

type entry struct {
	key   string
	elem  *list.Element
	bytes int64

	refs    int // open leases
	evicted bool

	ready chan struct{} // closed once the load completes
	built bool          // guarded by Cache.mu; true once ready is closed
	sys   *commute.System
	err   error
}

// New returns a cache bounded to maxBytes (<=0: unbounded). onRelease,
// if non-nil, is invoked once per evicted entry after its last lease
// closes — the serving layer passes (*commute.System).Release to drop
// the program's resolution and compiled-closure caches.
func New(maxBytes int64, onRelease func(*commute.System)) *Cache {
	return &Cache{
		max:       maxBytes,
		entries:   make(map[string]*entry),
		ll:        list.New(),
		onRelease: onRelease,
	}
}

// Handle is a lease on a cache entry. The System stays valid until
// Close; Close must be called exactly once.
type Handle struct {
	c *Cache
	e *entry
}

// System returns the leased system.
func (h *Handle) System() *commute.System { return h.e.sys }

// Close releases the lease. If the entry was evicted while leased, the
// last Close runs the release hook.
func (h *Handle) Close() {
	c, e := h.c, h.e
	c.mu.Lock()
	e.refs--
	fire := e.refs == 0 && e.evicted && e.err == nil
	c.mu.Unlock()
	if fire && c.onRelease != nil {
		c.onRelease(e.sys)
	}
}

// Peek returns a lease on key's entry when it is already loaded,
// without triggering a load or blocking on one in flight. It lets the
// serving layer prefer the warm in-memory system over the blob tier
// while falling through to artifact adoption (rather than a full
// pipeline run) when the system is absent.
func (c *Cache) Peek(key string) (*Handle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.built || e.err != nil {
		return nil, false
	}
	e.refs++
	c.ll.MoveToFront(e.elem)
	c.hits.Add(1)
	return &Handle{c: c, e: e}, true
}

// GetOrLoad returns a lease on the system for key, loading it with load
// on a miss. load returns the system and its retained-size estimate in
// bytes. hit reports whether this request was served without running
// load (a cached entry, or a singleflight wait on a concurrent loader).
// On error no entry is cached and the error is shared with every
// concurrent waiter.
func (c *Cache) GetOrLoad(key string, load func() (*commute.System, int64, error)) (h *Handle, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		c.ll.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The loader failed; it already removed the entry.
			c.mu.Lock()
			e.refs--
			c.mu.Unlock()
			return nil, true, e.err
		}
		c.hits.Add(1)
		return &Handle{c: c, e: e}, true, nil
	}

	// Miss: this goroutine is the loader.
	e := &entry{key: key, refs: 1, ready: make(chan struct{})}
	e.elem = c.ll.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	sys, size, lerr := load()

	c.mu.Lock()
	if lerr != nil {
		e.err = lerr
		e.refs--
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
	released := c.evictOverBudgetLocked()
	c.mu.Unlock()
	c.release(released)
	return &Handle{c: c, e: e}, false, nil
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
// met, returning the systems whose release hook should run now (their
// refcount already reached zero). Entries still loading are skipped;
// entries still leased are unlinked now and released by the last Close.
func (c *Cache) evictOverBudgetLocked() []*commute.System {
	if c.max <= 0 {
		return nil
	}
	var released []*commute.System
	for c.bytes > c.max {
		var victim *entry
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			cand := el.Value.(*entry)
			if cand.built && !cand.evicted {
				victim = cand
				break
			}
		}
		if victim == nil {
			return released // everything left is loading or evicted
		}
		victim.evicted = true
		c.bytes -= victim.bytes
		c.removeLocked(victim)
		c.evictions.Add(1)
		if victim.refs == 0 && victim.err == nil {
			released = append(released, victim.sys)
		}
	}
	return released
}

func (c *Cache) release(systems []*commute.System) {
	if c.onRelease == nil {
		return
	}
	for _, s := range systems {
		c.onRelease(s)
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
