package rtkit

import (
	"sync/atomic"
	"testing"
)

// TestPoolRunsAllTasks checks that every spawned task (including
// transitively spawned ones) runs exactly once before Wait returns, with
// and without hooks.
func TestPoolRunsAllTasks(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		var ran, wrapped atomic.Int64
		h := Hooks{}
		if hooked {
			h.Run = func(w *Worker, label string, body func(*Worker)) {
				wrapped.Add(1)
				body(w)
			}
		}
		p := NewPool(4, Stealing, h)
		const fanout = 50
		for i := 0; i < fanout; i++ {
			p.Spawn(p.External(), "parent", func(w *Worker) {
				ran.Add(1)
				w.Pool().Spawn(w, "child", func(*Worker) { ran.Add(1) })
			})
		}
		p.Wait()
		if got := ran.Load(); got != 2*fanout {
			t.Errorf("hooked=%v: ran %d tasks, want %d", hooked, got, 2*fanout)
		}
		if hooked && wrapped.Load() != 2*fanout {
			t.Errorf("Run hook wrapped %d tasks, want %d", wrapped.Load(), 2*fanout)
		}
	}
}

// TestDequeOverflowSpillsToInjector spawns far more tasks than the
// deque bound from a single task; nothing may be lost.
func TestDequeOverflowSpillsToInjector(t *testing.T) {
	var ran atomic.Int64
	p := NewPool(2, Stealing, Hooks{})
	p.Spawn(p.External(), "root", func(w *Worker) {
		for i := 0; i < 4*dequeCap; i++ {
			w.Pool().Spawn(w, "leaf", func(*Worker) { ran.Add(1) })
		}
	})
	p.Wait()
	if got := ran.Load(); got != 4*dequeCap {
		t.Fatalf("ran %d tasks, want %d", got, 4*dequeCap)
	}
}

// TestExternalSpawnAfterWaitlessIdle checks Pending bookkeeping.
func TestPending(t *testing.T) {
	p := NewPool(1, Stealing, Hooks{})
	block := make(chan struct{})
	p.Spawn(p.External(), "blocker", func(*Worker) { <-block })
	if p.Pending() < 1 {
		t.Fatalf("pending = %d, want >= 1", p.Pending())
	}
	close(block)
	p.Wait()
	if p.Pending() != 0 {
		t.Fatalf("pending after Wait = %d, want 0", p.Pending())
	}
}

// TestDrainReusesWorkers runs many task "regions" through one pool,
// draining between them — the native backend's region-wrapper pattern.
// Every region's tasks must complete before Drain returns, and the
// workers must still be alive for the next region and the final Wait.
func TestDrainReusesWorkers(t *testing.T) {
	p := NewPool(4, Stealing, Hooks{})
	var ran atomic.Int64
	const regions, perRegion = 50, 100
	for r := 0; r < regions; r++ {
		before := ran.Load()
		for i := 0; i < perRegion; i++ {
			p.Spawn(p.External(), "task", func(w *Worker) {
				// Nested spawn exercises transitive completion per drain.
				w.Pool().Spawn(w, "leaf", func(*Worker) { ran.Add(1) })
			})
		}
		p.Drain()
		if got := ran.Load() - before; got != perRegion {
			t.Fatalf("region %d: drained with %d tasks complete, want %d", r, got, perRegion)
		}
	}
	p.Wait()
	if got := ran.Load(); got != regions*perRegion {
		t.Fatalf("ran %d tasks, want %d", got, regions*perRegion)
	}
}
