// Package rtkit is the work-stealing task scheduler shared by the
// interpreter runtime (internal/rt) and the native code the Go backend
// emits (internal/codegen's emitgo). Both keep one pool for a whole
// run, Drain it at every parallel region's join, and run their parallel
// loops on it through RunLoop (loop.go): the goroutine that reaches a
// loop claims chunks itself and offers helpers as pool tasks, so no
// goroutine is created per loop. It is the same bounded Chase-Lev deque
// + injector design that previously lived in internal/rt/sched.go,
// behind a small public surface so generated programs — which cannot
// import internal packages — run their parallel extents on the exact
// scheduler the interpreter uses.
//
// Policy stays with the caller: rtkit moves tasks, and the optional
// Hooks let the embedder wrap task execution (panic isolation, fault
// injection, cancellation) and count scheduler events. With zero
// hooks a task simply runs, which is what native binaries want.
package rtkit

import (
	"sync"
	"sync/atomic"
)

// Mode names the task scheduler backing a pool. Stealing is the only
// one; the type and NewPool's mode parameter remain only because the
// benchmark harness (e2ebench/micro.go) passes rtkit.Stealing and a
// change may not edit the harness it is judged by. The next change to
// e2ebench can drop both.
type Mode int

// Stealing gives every worker a bounded private deque: spawns push LIFO
// onto the spawning worker's deque, the owner pops LIFO (depth-first,
// cache-warm), and idle workers steal FIFO from victims' tails
// (breadth-first, large subtrees). Spawns from outside the pool — the
// region root, and the helpers of a loop it reaches — and deque overflow
// land in a shared injector queue.
const Stealing Mode = iota

// Hooks customizes pool behavior. All fields may be nil.
type Hooks struct {
	// Run executes one dequeued task. Embedders use it for panic
	// isolation, cancellation checks, and fault injection around the
	// task body. When nil the task body runs directly (a panic then
	// crashes the process, the normal Go contract for native code).
	Run func(w *Worker, label string, body func(*Worker))
	// OnLocalPop is called when a worker pops its own deque.
	OnLocalPop func()
	// OnSteal is called when a worker steals from a victim's deque.
	OnSteal func()
}

// task is one spawned operation with a label for diagnostics. Task
// structs are recycled through taskPool: a task is taken from a queue
// exactly once, so after run returns no queue slot can hand out a live
// reference and the struct may be reused.
type task struct {
	label string
	run   func(*Worker)
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

// dequeCap bounds each worker's private deque (power of two). Overflow
// spills to the shared injector queue, so the bound costs at most a
// mutex hop under extreme fan-out — it never loses or delays tasks
// indefinitely.
const dequeCap = 256

// deque is a bounded Chase-Lev work-stealing deque. The owning worker
// pushes and pops at the bottom (LIFO); thieves steal from the top
// (FIFO) racing each other and the owner through a CAS on top. All slot
// accesses go through atomics, so the scheduler is clean under the race
// detector. The bounded-capacity check in push (b-t >= cap fails)
// guarantees a slot is never overwritten while any thief that could
// still win the CAS for it holds a stale pointer: reusing slot s
// requires top to have advanced past s, after which every stale CAS at
// s's old top value must fail.
type deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    [dequeCap]atomic.Pointer[task]
}

// push appends t at the bottom. It reports false when the deque is full
// (caller spills to the injector).
func (d *deque) push(t *task) bool {
	b := d.bottom.Load()
	tp := d.top.Load()
	if b-tp >= dequeCap {
		return false
	}
	d.buf[b&(dequeCap-1)].Store(t)
	d.bottom.Store(b + 1)
	return true
}

// pop removes the most recently pushed task (owner only).
func (d *deque) pop() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	t := d.buf[b&(dequeCap-1)].Load()
	if tp == b {
		// Last element: race thieves via the CAS on top.
		if !d.top.CompareAndSwap(tp, tp+1) {
			t = nil // a thief won
		}
		d.bottom.Store(b + 1)
		return t
	}
	return t
}

// steal removes the oldest task (any goroutine).
func (d *deque) steal() *task {
	tp := d.top.Load()
	b := d.bottom.Load()
	if tp >= b {
		return nil
	}
	t := d.buf[tp&(dequeCap-1)].Load()
	if !d.top.CompareAndSwap(tp, tp+1) {
		return nil // lost the race; discard the stale read
	}
	return t
}

// Worker is one scheduler participant. Pool workers own a deque; the
// external handle (the region root's) has dq == nil and spawns through
// the injector, so single-owner deque discipline is never violated from
// a foreign goroutine.
type Worker struct {
	p   *Pool
	id  int // -1: external handle
	dq  *deque
	rnd uint64 // xorshift state for victim selection
}

// Pool returns the pool this worker belongs to.
func (w *Worker) Pool() *Pool { return w.p }

// ID is the worker's index in its pool, 0 ≤ ID < workers, or -1 for the
// external handle. Embedders key per-goroutine state on it.
func (w *Worker) ID() int { return w.id }

// Pool is a task scheduler that outlives the parallel regions run on
// it: Drain joins one region, Wait ends the pool. The mutex guards only
// the injector queue and parking; the task fast path (local push, pop,
// steal) is lock-free.
type Pool struct {
	hooks    Hooks
	workers  []*Worker
	external *Worker

	pending  atomic.Int64 // queued + running tasks, loop helpers included
	helpers  atomic.Int64 // loop helpers offered (RunLoop), not yet finished
	sleepers atomic.Int64 // workers inside park()

	mu       sync.Mutex
	cond     *sync.Cond // workers park here; Wait() parks here too
	injector []*task
	done     bool
}

// NewPool starts workers goroutines and returns the running pool. Drain
// it at the end of each parallel region; call Wait exactly once, when no
// more regions will run, to shut the workers down.
func NewPool(workers int, _ Mode, h Hooks) *Pool {
	p := &Pool{hooks: h}
	p.cond = sync.NewCond(&p.mu)
	p.external = &Worker{p: p, id: -1}
	// The workers slice must be complete before any worker goroutine
	// starts: stealAny iterates it without synchronization.
	for i := 0; i < workers; i++ {
		p.workers = append(p.workers, &Worker{p: p, id: i, dq: &deque{}, rnd: uint64(i)*0x9e3779b97f4a7c15 + 1})
	}
	for _, w := range p.workers {
		go p.workerLoop(w)
	}
	return p
}

// External returns the handle for spawning from outside the pool (the
// region root).
func (p *Pool) External() *Worker { return p.external }

// Workers is the number of pool workers: every worker's ID is below it.
func (p *Pool) Workers() int { return len(p.workers) }

// Pending reports the program's queued+running tasks, loop helpers
// aside (lazy task creation).
func (p *Pool) Pending() int { return int(p.pending.Load() - p.helpers.Load()) }

// Spawn enqueues a task from worker w (use External() from outside the
// pool). The pending increment happens before the task is visible to
// any queue, and every spawn occurs inside a still-running task or
// before Wait() is called, so pending cannot falsely reach zero.
func (p *Pool) Spawn(w *Worker, label string, f func(*Worker)) {
	t := taskPool.Get().(*task)
	t.label, t.run = label, f
	p.pending.Add(1)
	if w != nil && w.dq != nil && w.dq.push(t) {
		// Lost-wakeup-free handoff: the push above and the sleepers
		// read below are both sequentially consistent, and a parker
		// increments sleepers before re-checking the queues — so either
		// this load observes the sleeper (and we broadcast under the
		// mutex) or the sleeper's recheck observes the push.
		if p.sleepers.Load() > 0 {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		return
	}
	p.mu.Lock()
	p.injector = append(p.injector, t)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// popInjector takes the newest injector task (LIFO: depth-first, like
// a worker's own deque).
func (p *Pool) popInjector() *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.popInjectorLocked()
}

func (p *Pool) popInjectorLocked() *task {
	n := len(p.injector)
	if n == 0 {
		return nil
	}
	t := p.injector[n-1]
	p.injector[n-1] = nil
	p.injector = p.injector[:n-1]
	return t
}

// stealAny tries each other worker's deque once, starting at a random
// victim.
func (p *Pool) stealAny(w *Worker) *task {
	n := len(p.workers)
	if n <= 1 {
		return nil
	}
	w.rnd ^= w.rnd << 13
	w.rnd ^= w.rnd >> 7
	w.rnd ^= w.rnd << 17
	start := int(w.rnd % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(start+i)%n]
		if v == w {
			continue
		}
		if t := v.dq.steal(); t != nil {
			return t
		}
	}
	return nil
}

// findTask is the worker's acquisition order: own deque (LIFO), then
// the injector, then stealing.
func (p *Pool) findTask(w *Worker) *task {
	if t := w.dq.pop(); t != nil {
		if p.hooks.OnLocalPop != nil {
			p.hooks.OnLocalPop()
		}
		return t
	}
	if t := p.popInjector(); t != nil {
		return t
	}
	if t := p.stealAny(w); t != nil {
		if p.hooks.OnSteal != nil {
			p.hooks.OnSteal()
		}
		return t
	}
	return nil
}

// park blocks until a task is available or the pool shuts down (nil).
// sleepers is raised before the re-check: see Spawn for why this
// cannot miss a wakeup.
func (p *Pool) park(w *Worker) *task {
	p.sleepers.Add(1)
	defer p.sleepers.Add(-1)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if t := p.popInjectorLocked(); t != nil {
			return t
		}
		if t := p.stealAny(w); t != nil {
			if p.hooks.OnSteal != nil {
				p.hooks.OnSteal()
			}
			return t
		}
		if p.done {
			return nil
		}
		p.cond.Wait()
	}
}

func (p *Pool) workerLoop(w *Worker) {
	for {
		t := p.findTask(w)
		if t == nil {
			t = p.park(w)
			if t == nil {
				return // pool shut down
			}
		}
		if p.hooks.Run != nil {
			p.hooks.Run(w, t.label, t.run)
		} else {
			t.run(w)
		}
		t.label, t.run = "", nil
		taskPool.Put(t)
		if p.pending.Add(-1) == 0 {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// Wait blocks until all spawned tasks (including transitively spawned
// ones) complete, then shuts the pool down: the parked workers are told
// to exit (they do so asynchronously) and nothing may be spawned
// afterwards. Call it once per pool, not once per region.
func (p *Pool) Wait() {
	p.mu.Lock()
	for p.pending.Load() > 0 {
		p.cond.Wait()
	}
	p.done = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Drain is a region's join: it blocks until all spawned tasks
// (including transitively spawned ones) complete, and keeps the workers
// parked for the next region. When it returns no task is queued or
// running, so the caller owns the heap again until its next Spawn. A
// caller running many parallel regions pays the worker-goroutine
// startup cost once per pool instead of once per region; call Wait once
// at the end (or let process exit reap the workers — they hold no
// resources beyond their stacks while parked).
func (p *Pool) Drain() {
	p.mu.Lock()
	for p.pending.Load() > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}
