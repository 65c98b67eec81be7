package rtkit

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countLoop is a LoopBody that counts how often each index ran, how many
// claimants there were and how often the record was released.
type countLoop struct {
	Loop
	mu        sync.Mutex
	ran       map[int64]int
	claimants int
	released  int
}

func (c *countLoop) Claim(*Worker) {
	c.mu.Lock()
	c.claimants++
	c.mu.Unlock()
	for {
		start, end, ok := c.Next()
		if !ok {
			return
		}
		for i := start; i < end; i += c.Step() {
			c.mu.Lock()
			c.ran[i]++
			c.mu.Unlock()
		}
	}
}

func (c *countLoop) Release() {
	c.mu.Lock()
	c.released++
	c.mu.Unlock()
}

// TestRunLoopRunsEveryIndexOnce: every index of the iteration space runs
// exactly once whatever the worker count, from the region root and from
// inside a pool task, the claimants never outnumber the configured
// workers, and the record is released exactly once.
func TestRunLoopRunsEveryIndexOnce(t *testing.T) {
	shapes := []struct{ from, to, step int64 }{{0, 100, 1}, {0, 1, 1}, {5, 50, 3}, {0, 7, 2}, {0, 1000, 1}}
	p := NewPool(4, Stealing, Hooks{})
	for _, workers := range []int{1, 2, 4, 9} {
		for _, sh := range shapes {
			for _, inTask := range []bool{false, true} {
				c := &countLoop{ran: map[int64]int{}}
				if inTask {
					p.Spawn(p.External(), "", func(w *Worker) {
						p.RunLoop(w, &c.Loop, c, workers, sh.from, sh.to, sh.step)
					})
				} else {
					p.RunLoop(p.External(), &c.Loop, c, workers, sh.from, sh.to, sh.step)
				}
				p.Drain()
				want := 0
				for i := sh.from; i < sh.to; i += sh.step {
					want++
					if c.ran[i] != 1 {
						t.Fatalf("workers=%d %+v inTask=%v: index %d ran %d times", workers, sh, inTask, i, c.ran[i])
					}
				}
				if len(c.ran) != want {
					t.Fatalf("workers=%d %+v inTask=%v: %d distinct indices, want %d", workers, sh, inTask, len(c.ran), want)
				}
				if c.claimants < 1 || c.claimants > workers || c.claimants > want {
					t.Errorf("workers=%d %+v inTask=%v: %d claimants", workers, sh, inTask, c.claimants)
				}
				if c.released != 1 {
					t.Errorf("workers=%d %+v inTask=%v: released %d times, want 1", workers, sh, inTask, c.released)
				}
			}
		}
	}
	p.Wait()
}

// TestRunLoopJoinsWithoutStarvedHelpers: a loop's helpers are only
// offers. With every worker that could take them stuck in a gate task,
// the caller runs the whole loop itself and RunLoop returns at once —
// seen here as two loops in a row finishing while the gates are still
// shut — both when the caller is the region root (external to the pool)
// and when it is a pool worker running a task. A join that waited for
// every offered helper would never return. The queued offers are not
// tasks of the program (Pending leaves them out), and once the gates
// open each drops its reference, so every record is released once.
func TestRunLoopJoinsWithoutStarvedHelpers(t *testing.T) {
	const workers = 2
	for _, inTask := range []bool{false, true} {
		p := NewPool(workers, Stealing, Hooks{})
		stuck := workers
		if inTask {
			stuck = workers - 1 // one worker stays free to run the task
		}
		gate := make(chan struct{})
		var started atomic.Int64
		for i := 0; i < stuck; i++ {
			p.Spawn(p.External(), "gate", func(*Worker) {
				started.Add(1)
				<-gate
			})
		}
		for deadline := time.Now().Add(10 * time.Second); started.Load() < int64(stuck); {
			if time.Now().After(deadline) {
				t.Fatal("gate tasks did not start")
			}
			time.Sleep(time.Millisecond)
		}

		loops := []*countLoop{{ran: map[int64]int{}}, {ran: map[int64]int{}}}
		pendingSeen := make(chan int, 1)
		twoLoops := func(w *Worker) {
			for _, c := range loops {
				p.RunLoop(w, &c.Loop, c, workers, 0, 8, 1)
			}
			pendingSeen <- p.Pending()
		}
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			if inTask {
				done := make(chan struct{})
				p.Spawn(p.External(), "task", func(w *Worker) {
					twoLoops(w)
					close(done)
				})
				<-done
			} else {
				twoLoops(p.External())
			}
		}()
		select {
		case <-joined:
		case <-time.After(10 * time.Second):
			t.Fatalf("inTask=%v: the join waited for helpers no worker could run", inTask)
		}
		// Tasks of the program at that point: the gates, and the task
		// running the loops when there is one.
		if got, want := <-pendingSeen, workers; got != want {
			t.Errorf("inTask=%v: Pending() = %d with loop helpers queued, want %d", inTask, got, want)
		}
		close(gate)
		p.Wait()
		for i, c := range loops {
			if len(c.ran) != 8 || c.claimants != 1 {
				t.Errorf("inTask=%v: loop %d ran %d indices on %d claimants, want 8 on 1", inTask, i, len(c.ran), c.claimants)
			}
			if c.released != 1 {
				t.Errorf("inTask=%v: loop %d released %d times, want 1", inTask, i, c.released)
			}
		}
		if got := p.Pending(); got != 0 {
			t.Errorf("inTask=%v: Pending() = %d after Wait", inTask, got)
		}
	}
}

// TestLoopExit: LoopExit is what the serial loop of the same header
// leaves in its variable — past the bound when the step oversteps it,
// the start when no iteration runs.
func TestLoopExit(t *testing.T) {
	for _, sh := range []struct{ from, to, step int64 }{
		{0, 100, 1}, {0, 5, 2}, {5, 50, 3}, {0, 6, 3}, {20, 10, 1}, {7, 7, 4}, {-5, 6, 4}, {-9, -2, 5},
	} {
		i := sh.from
		for ; i < sh.to; i += sh.step {
		}
		if got := LoopExit(sh.from, sh.to, sh.step); got != i {
			t.Errorf("LoopExit(%d, %d, %d) = %d, the loop leaves %d", sh.from, sh.to, sh.step, got, i)
		}
	}
}
