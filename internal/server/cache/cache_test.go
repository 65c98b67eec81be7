package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commute"
)

// tinySystem loads a minimal real system for cache-mechanics tests
// (the cache stores *commute.System; the same instance may back many
// keys).
func tinySystem(t *testing.T) *commute.System {
	t.Helper()
	sys, err := commute.Load("tiny.mc", "void main() { print(1); }")
	if err != nil {
		t.Fatalf("load tiny system: %v", err)
	}
	return sys
}

func TestHitMiss(t *testing.T) {
	sys := tinySystem(t)
	c := New(0)
	loads := 0
	load := func() (*commute.System, int64, error) {
		loads++
		return sys, 100, nil
	}

	if _, hit, err := c.GetOrLoad("k1", load); err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v, want miss", hit, err)
	}
	got, hit, err := c.GetOrLoad("k1", load)
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v, want hit", hit, err)
	}
	if got != sys {
		t.Fatal("hit returned a different system")
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("snapshot = %+v, want 1 hit / 1 miss / 1 entry / 100 bytes", st)
	}
}

func TestSingleflight(t *testing.T) {
	sys := tinySystem(t)
	c := New(0)
	var loads atomic.Int64
	const goroutines = 32

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, _, err := c.GetOrLoad("shared", func() (*commute.System, int64, error) {
				loads.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return sys, 1, nil
			})
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if got != sys {
				t.Error("waiter saw a different system")
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d concurrent first requests ran the loader %d times, want 1", goroutines, n)
	}
	st := c.Snapshot()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("snapshot = %+v, want 1 miss and %d hits", st, goroutines-1)
	}
}

func TestErrorNotCached(t *testing.T) {
	sys := tinySystem(t)
	c := New(0)
	boom := errors.New("boom")
	loads := 0

	_, _, err := c.GetOrLoad("k", func() (*commute.System, int64, error) {
		loads++
		return nil, 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("first get err = %v, want boom", err)
	}
	// The failed load left no entry; the next get loads again and can
	// succeed.
	if _, hit, err := c.GetOrLoad("k", func() (*commute.System, int64, error) {
		loads++
		return sys, 1, nil
	}); err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v, want fresh miss", hit, err)
	}
	if loads != 2 {
		t.Fatalf("loader ran %d times, want 2", loads)
	}
}

func TestEvictionByByteBudget(t *testing.T) {
	sys := tinySystem(t)
	c := New(250)

	for i := 0; i < 3; i++ {
		if _, _, err := c.GetOrLoad(fmt.Sprintf("k%d", i), func() (*commute.System, int64, error) {
			return sys, 100, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 200 {
		t.Fatalf("snapshot = %+v, want 1 eviction, 2 entries, 200 bytes", st)
	}
	// k0 was the LRU victim; k2 must still be resident.
	if _, hit, _ := c.GetOrLoad("k2", func() (*commute.System, int64, error) {
		t.Fatal("k2 should be cached")
		return nil, 0, nil
	}); !hit {
		t.Fatal("k2 evicted, want resident")
	}
}

func TestPeek(t *testing.T) {
	sys := tinySystem(t)
	c := New(0)
	if _, ok := c.Peek("k"); ok {
		t.Fatal("Peek hit an empty cache")
	}
	if _, _, err := c.GetOrLoad("k", func() (*commute.System, int64, error) {
		return sys, 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Peek("k"); !ok || got != sys {
		t.Fatal("Peek missed a resident entry")
	}
	// Peek must never block on (or join) an in-flight load.
	loading := make(chan struct{})
	release := make(chan struct{})
	go c.GetOrLoad("slow", func() (*commute.System, int64, error) {
		close(loading)
		<-release
		return sys, 1, nil
	})
	<-loading
	if _, ok := c.Peek("slow"); ok {
		t.Fatal("Peek returned an entry still loading")
	}
	close(release)
}

func TestSingleflightErrorSharedByWaiters(t *testing.T) {
	// Every waiter coalesced onto a failing loader must observe the
	// loader's error, and the failure must not poison the key.
	sys := tinySystem(t)
	c := New(0)
	boom := errors.New("boom")
	var loads atomic.Int64

	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got, _, err := c.GetOrLoad("k", func() (*commute.System, int64, error) {
				loads.Add(1)
				time.Sleep(10 * time.Millisecond) // let waiters pile up
				return nil, 0, boom
			})
			if got != nil {
				t.Error("failed load produced a system")
			}
			errs[i] = err
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d err = %v, want boom", i, err)
		}
	}
	// Failed loads run once per stampede wave (never cached); 1 here.
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	if st := c.Snapshot(); st.Entries != 0 {
		t.Fatalf("failed load left %d entries cached", st.Entries)
	}
	if _, hit, err := c.GetOrLoad("k", func() (*commute.System, int64, error) {
		return sys, 1, nil
	}); err != nil || hit {
		t.Fatalf("post-failure get: hit=%v err=%v, want fresh load", hit, err)
	}
}

func TestEvictionUnderConcurrentLeaseChurn(t *testing.T) {
	// Hammer a tiny cache from many goroutines so loads, hits, peeks and
	// evictions of entries other goroutines are still using all
	// interleave, then check the byte accounting: the budget holds and
	// the bytes are the resident entries'. (Run under -race this also
	// shakes out lock-ordering bugs.)
	sys := tinySystem(t)
	c := New(350)

	const goroutines = 8
	const iters = 300
	const keys = 12 // ~12 entries of 100 bytes churning a 3-entry budget
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%keys)
				got, _, err := c.GetOrLoad(key, func() (*commute.System, int64, error) {
					return sys, 100, nil
				})
				if err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				if got != sys {
					t.Error("system invalid mid-churn")
				}
				if i%3 == 0 {
					if p, ok := c.Peek(key); ok && p != sys {
						t.Error("peeked system invalid mid-churn")
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Snapshot()
	if st.Bytes > 350 || st.Bytes != 100*st.Entries {
		t.Fatalf("after churn: %d bytes for %d entries, want 100 each within 350", st.Bytes, st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions; the test exercised nothing")
	}
}
