package rtkit

import (
	"sync"
	"sync/atomic"
)

// LoopBody is the embedder's half of a parallel loop: what a claimant
// does with the chunks it claims, and what becomes of the record when
// the loop is over.
type LoopBody interface {
	// Claim runs on the goroutine that reached the loop and on every
	// helper that joined it: set up the claimant's private state, then
	// execute the chunks Loop.Next hands out until it reports false.
	Claim(w *Worker)
	// Release is called exactly once, by whichever of caller and helpers
	// lets go last: nothing references the Loop any more, so the record
	// that embeds it may be recycled.
	Release()
}

// Loop is one execution of a parallel counted loop on a pool: the
// shared claim cursor and the join state. Embed it in the record that
// implements LoopBody and hand both to Pool.RunLoop; the zero value is
// ready, and a record is reusable once Release has been called.
type Loop struct {
	next         atomic.Int64 // first unclaimed iteration
	to, step     int64
	div          int64 // chunk divisor: the configured worker count
	body         LoopBody
	pool         *Pool
	mu           sync.Mutex
	idle         sync.Cond // the caller waits here for active == 0
	closed       bool      // the caller is joining: no more helpers
	active, refs int       // helpers inside Claim; caller + helpers not yet finished
	helpFn       func(*Worker)
}

// RunLoop executes for (i = from; i < to; i += step), step > 0, with
// guided self-scheduling, and returns when every iteration has run. The
// goroutine that reached the loop is a claimant itself, so progress
// never depends on a worker being free; up to workers-1 helpers are
// offered as tasks (on w's deque when w is a pool worker, through the
// injector otherwise). A helper that a worker picks up before the
// caller closes the loop joins it; one that comes too late only drops
// its reference. The join waits for helpers that joined, never for
// offers still queued — Drain collects those. Helpers are not tasks of
// the program: Pending leaves them out.
func (p *Pool) RunLoop(w *Worker, l *Loop, body LoopBody, workers int, from, to, step int64) {
	workers = max(workers, 1)
	total := (to - from + step - 1) / step
	helpers := int(max(0, min(int64(workers)-1, total-1)))
	if l.helpFn == nil {
		l.idle.L = &l.mu
		l.helpFn = l.help
	}
	l.to, l.step, l.div, l.body, l.pool = to, step, int64(workers), body, p
	l.next.Store(from)
	l.closed, l.active, l.refs = false, 0, 1+helpers
	p.helpers.Add(int64(helpers))
	for i := 0; i < helpers; i++ {
		p.Spawn(w, "", l.helpFn)
	}
	body.Claim(w)
	l.mu.Lock()
	l.closed = true
	for l.active > 0 {
		l.idle.Wait()
	}
	l.unref()
}

// Next claims the next chunk [start, end) — remaining/workers
// iterations, at least one, by compare-and-swap on the shared cursor —
// or reports false when the iteration space is exhausted. A claimant's
// chunks come in increasing order.
func (l *Loop) Next() (start, end int64, ok bool) {
	for {
		start = l.next.Load()
		if start >= l.to {
			return 0, 0, false
		}
		chunk := (l.to - start + l.step - 1) / l.step / l.div
		if chunk < 1 {
			chunk = 1
		}
		end = start + chunk*l.step
		if l.next.CompareAndSwap(start, end) {
			if end > l.to {
				end = l.to
			}
			return start, end, true
		}
	}
}

// Step is the loop's stride.
func (l *Loop) Step() int64 { return l.step }

// LoopExit is what the variable of for (v = from; v < to; v += step),
// step > 0, holds once the loop is over: the first from + k*step not
// below to, which is from itself when no iteration runs. Whoever runs
// such a loop in place of the serial statement stores it in v.
func LoopExit(from, to, step int64) int64 {
	if to <= from {
		return from
	}
	return from + (to-from+step-1)/step*step
}

// help is a helper's task body.
func (l *Loop) help(w *Worker) {
	l.mu.Lock()
	if !l.closed && l.next.Load() < l.to {
		l.active++
		l.mu.Unlock()
		l.body.Claim(w)
		l.mu.Lock()
		if l.active--; l.active == 0 {
			l.idle.Signal()
		}
	}
	l.pool.helpers.Add(-1)
	l.unref()
}

// unref drops one reference and unlocks; the last one releases the record.
func (l *Loop) unref() {
	l.refs--
	last := l.refs == 0
	l.mu.Unlock()
	if last {
		l.body.Release()
	}
}
