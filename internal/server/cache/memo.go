package cache

import (
	"crypto/sha256"
	"sync"
)

// MemoEntries is the entry bound of the request memos the router and
// each replica keep: two generations of 4 096.
const MemoEntries = 8192

// Memo remembers what an exact request body resolved to, keyed by the
// SHA-256 of the body's bytes, so a byte-identical repeat costs one hash
// instead of one JSON decode. Callers store only successes: a body that
// fails to decode or resolve is decoded again every time.
//
// It holds two generations of at most half its capacity. A lookup that
// finds an entry in the older generation moves it to the newer one, and
// filling the newer one drops the older. So a body seen within the last
// capacity/2 distinct bodies is remembered, and the entry count never
// exceeds the capacity. The zero value is not usable; call NewMemo.
type Memo[V any] struct {
	mu       sync.Mutex
	half     int
	cur, old map[[sha256.Size]byte]V
}

// NewMemo returns a memo of at most capacity entries (at least 2).
func NewMemo[V any](capacity int) *Memo[V] {
	return &Memo[V]{half: max(capacity/2, 1), cur: make(map[[sha256.Size]byte]V)}
}

// Get returns the value stored for the body with digest sum.
func (m *Memo[V]) Get(sum [sha256.Size]byte) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.cur[sum]; ok {
		return v, true
	}
	v, ok := m.old[sum]
	if ok {
		delete(m.old, sum)
		m.putLocked(sum, v)
	}
	return v, ok
}

// Put stores v for the body with digest sum.
func (m *Memo[V]) Put(sum [sha256.Size]byte, v V) {
	m.mu.Lock()
	m.putLocked(sum, v)
	m.mu.Unlock()
}

func (m *Memo[V]) putLocked(sum [sha256.Size]byte, v V) {
	if _, ok := m.cur[sum]; !ok && len(m.cur) >= m.half {
		m.old, m.cur = m.cur, make(map[[sha256.Size]byte]V)
	}
	m.cur[sum] = v
}

// Len is the number of bodies remembered.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
