package rt

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"commute/internal/codegen"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/nativert"
	"commute/rtkit"
)

// The scheduler itself — bounded Chase-Lev deques, injector overflow,
// parking — lives in the public rtkit package so the native Go backend
// can reuse it from generated (non-internal) code. This file keeps the
// runtime-specific policy: one pool per Runtime, the spawned-task and
// loop-claimant bodies with the panic isolation / fault injection /
// cancellation checks the interpreter contract requires, and the
// records both recycle.

// worker aliases the scheduler participant; rt code passes it through
// callVersion so spawns from a pool worker hit its private deque.
type worker = rtkit.Worker

// lane is one goroutine's LIFO free list of activation records, and its
// replicas of the global objects the plan's replicated accumulations
// write (codegen.ActionReplica). Each scheduler handle belongs to one
// goroutine — a pool worker's to that worker, the external handle (and
// nil) to RunContext's — so the lane its ID selects needs no lock.
type lane struct {
	free     *activation
	replicas map[*interp.Object]*replica
	touched  []*replica // written since the last fold
}

// replica is one goroutine's replica of a global accumulator object: an
// object of its class, zero but for what this goroutine added since the
// last fold.
type replica struct {
	of, rep *interp.Object
	touched bool
}

// replica returns the lane's replica of the global o, making it on first
// use, and notes it for the region's fold.
func (ln *lane) replica(rt *Runtime, o *interp.Object) *interp.Object {
	r := ln.replicas[o]
	if r == nil {
		if ln.replicas == nil {
			ln.replicas = make(map[*interp.Object]*replica)
		}
		r = &replica{of: o, rep: rt.IP.NewObject(o.Class)}
		ln.replicas[o] = r
	}
	if !r.touched {
		r.touched = true
		ln.touched = append(ln.touched, r)
	}
	return r.rep
}

// foldReplicas is a region's join for its replicated accumulations: the
// accumulated fields (codegen.Plan.Folds) of every replica a lane touched
// are added into its object and zeroed. The pool has drained, so nothing
// else runs.
func (rt *Runtime) foldReplicas() {
	for _, ln := range rt.lanes {
		for _, r := range ln.touched {
			for _, f := range rt.Plan.Folds[r.of.Class] {
				foldValue(&r.of.Slots[f.Slot], &r.rep.Slots[f.Slot])
			}
			r.touched = false
		}
		ln.touched = ln.touched[:0]
	}
}

// foldValue adds the replica's value r into o and zeroes r: an int, a
// double, or an array of them element by element.
func foldValue(o, r *interp.Value) {
	switch r.Kind() {
	case interp.KInt:
		*o, *r = interp.IntValue(o.Int()+r.Int()), interp.IntValue(0)
	case interp.KFloat:
		*o, *r = interp.FloatValue(o.Float()+r.Float()), interp.FloatValue(0)
	case interp.KArray:
		oe, re := o.Array().Elems, r.Array().Elems
		for i := range re {
			foldValue(&oe[i], &re[i])
		}
	}
}

// regionPool returns the run's scheduler, starting it (and the lanes) at
// the first parallel region. Regions open only on RunContext's own
// goroutine, one at a time, and each ends with Drain, so between regions
// the pool is idle: no task queued, none running, the workers parked.
func (rt *Runtime) regionPool() *rtkit.Pool {
	if rt.pool == nil {
		rt.lanes = make([]*lane, rt.Workers+1)
		for i := range rt.lanes {
			rt.lanes[i] = new(lane)
		}
		rt.pool = rtkit.NewPool(rt.Workers, rtkit.Stealing, rtkit.Hooks{
			OnLocalPop: func() { atomic.AddInt64(&rt.Stats.LocalPops, 1) },
			OnSteal:    func() { atomic.AddInt64(&rt.Stats.Steals, 1) },
		})
	}
	return rt.pool
}

// isolate is deferred around everything that runs user code inside a
// region: a panic becomes a TaskError on the first-error path instead of
// unwinding past the runtime, and the diagnostic is only built here.
func (rt *Runtime) isolate(origin string, m *types.Method) {
	if r := recover(); r != nil {
		atomic.AddInt64(&rt.Stats.TaskPanics, 1)
		rt.setErr(newTaskError(origin, m.FullName(), r))
	}
}

// spawnRec is one spawned operation in flight: the callee and its own
// copy of the arguments (the caller's slice is recycled when the Invoke
// hook returns), with the storage of its array snapshots. Records cross
// goroutines — taken by the spawner, put back by whichever worker ran
// the task — hence a sync.Pool.
type spawnRec struct {
	rt     *Runtime
	callee *types.Method
	recv   *interp.Object
	args   []interp.Value
	snaps  []interp.Array // the task's copies of its array actuals
	elems  []interp.Value // their elements
	j      *nativert.SpecJournal
	ver    codegen.Version
	runFn  func(*worker) // run, bound once
}

var spawnRecs sync.Pool // of *spawnRec

// spawn creates a task executing callee as version ver, journaling into j
// in a speculative region. mon is the spawner's monitor (nil outside a
// speculative region).
func (rt *Runtime) spawn(w *worker, mon interp.Mon, j *nativert.SpecJournal, callee *types.Method, recv *interp.Object, args []interp.Value, ver codegen.Version) {
	atomic.AddInt64(&rt.Stats.Tasks, 1)
	s, _ := spawnRecs.Get().(*spawnRec)
	if s == nil {
		s = new(spawnRec)
		s.runFn = s.run
	}
	s.rt, s.callee, s.recv, s.j, s.ver = rt, callee, recv, j, ver
	s.args = append(s.args[:0], args...)
	s.snapshot(mon)
	rt.pool.Spawn(w, "", s.runFn)
}

// snapshot gives the task its own copy of each array actual. Fig. 10
// forbids an extent operation to write its reference parameters, so the
// copy is exactly what the serial call would have read, however the
// spawner rewrites the array after the call (a local array is reused by
// its frame's next activation, too). A speculative spawner's buffered
// writes are in its journal, so its copy reads through mon.
func (s *spawnRec) snapshot(mon interp.Mon) {
	n, k := 0, 0
	for _, v := range s.args {
		if a := v.Array(); a != nil {
			n, k = n+len(a.Elems), k+1
		}
	}
	if k == 0 {
		return
	}
	s.elems, s.snaps = slices.Grow(s.elems[:0], n)[:n], slices.Grow(s.snaps[:0], k)[:k]
	n, k = 0, 0
	for i, v := range s.args {
		a := v.Array()
		if a == nil {
			continue
		}
		e := s.elems[n : n+len(a.Elems) : n+len(a.Elems)]
		if mon != nil {
			for x := range e {
				e[x] = mon.LoadElem(a, x)
			}
		} else {
			copy(e, a.Elems)
		}
		s.snaps[k].Elems = e
		s.args[i] = interp.ArrayValue(&s.snaps[k])
		n, k = n+len(e), k+1
	}
}

// run executes one spawned task under panic isolation. Once the region
// has failed or the run is cancelled, remaining queued tasks are drained
// without executing (first error wins; their effects would be discarded
// anyway), which also lets the region's Drain return promptly.
func (s *spawnRec) run(cw *worker) {
	rt := s.rt
	defer s.recycle()
	defer rt.isolate("task", s.callee)
	if rt.failed.Load() {
		return
	}
	rt.injectSpawn()
	// The full interrupt check (cancellation and step budget) runs at
	// every task start: short-lived tasks never execute enough
	// statements to reach the interpreter's poll stride, so without
	// this an unbounded spawn chain would outlive the step budget. It
	// runs after injection so an injected cancellation, like a real
	// one, skips the task body before it can apply any effects.
	if err := rt.interrupt(); err != nil {
		rt.setErr(err)
		return
	}
	rt.callVersion(cw, s.j, s.callee, s.recv, s.args, s.ver, 0)
}

func (s *spawnRec) recycle() {
	clear(s.args)
	clear(s.elems)
	s.rt, s.callee, s.recv, s.j = nil, nil, nil, nil
	spawnRecs.Put(s)
}

// loopRun is the interpreter's half of one parallel loop execution (the
// cursor, the helpers and the join are rtkit.Loop's): what a claimant
// needs to run iterations. Records are recycled when the last of caller
// and helpers lets go.
type loopRun struct {
	rtkit.Loop
	rt    *Runtime
	fs    *ast.ForStmt
	fr    *interp.Frame
	depth int
	spec  bool
}

var loopRuns sync.Pool // of *loopRun

// parallelLoop runs a counted loop with guided self-scheduling;
// iterations execute mutex versions (§5.2), journaled per claimant when
// the region is speculative. A claimant executes its iterations in
// increasing order (chunk claims are monotonic), so within a claimant
// the serial order holds and only cross-claimant interference needs
// locks or detection. With one worker this is the serial loop plus those
// locks: the goroutine that reached the loop is a claimant itself, and
// the join waits only for helpers that started (rtkit.Pool.RunLoop).
func (rt *Runtime) parallelLoop(w *worker, spec bool, depth int, fs *ast.ForStmt, fr *interp.Frame, from, to, step int64) error {
	atomic.AddInt64(&rt.Stats.ParallelLoops, 1)
	if step <= 0 {
		// A non-positive step would divide by zero in the chunk-size
		// computation (or claim chunks forever).
		return &interp.RuntimeError{Msg: fmt.Sprintf("parallel loop at %s with non-positive step %d", fs.Pos(), step)}
	}
	if from >= to {
		return nil
	}
	lp, _ := loopRuns.Get().(*loopRun)
	if lp == nil {
		lp = new(loopRun)
	}
	lp.rt, lp.fs, lp.fr, lp.depth, lp.spec = rt, fs, fr, depth, spec
	// Helpers are not tasks of the program: no Stats.Tasks, no spawn
	// fault ordinal.
	rt.pool.RunLoop(w, &lp.Loop, lp, rt.Workers, from, to, step)
	return rt.firstErr()
}

// Release recycles the record (rtkit.LoopBody).
func (lp *loopRun) Release() {
	lp.rt, lp.fs, lp.fr = nil, nil, nil
	loopRuns.Put(lp)
}

// Claim executes chunks until the iteration space is exhausted, under
// panic isolation, observing cancellation and region failure at
// chunk-claim boundaries (rtkit.LoopBody).
func (lp *loopRun) Claim(w *worker) {
	rt, fs, step := lp.rt, lp.fs, lp.Step()
	defer lp.isolate()
	var j *nativert.SpecJournal
	if lp.spec {
		j = rt.spec.NewJournal()
	}
	a := rt.activate(w, j, lp.depth)
	defer a.done()
	// The loop body is its method's, run in the iteration context: the
	// call rule answers for its sites; nested loops stay serial.
	a.mp, a.ver = rt.methods[lp.fr.Method().ID].mp, codegen.VersionIteration
	a.Invoke = a.invokeFn
	// One iteration frame per claimant: the parent frame's slot array
	// is copied once here, not once per chunk — iterations only write
	// their own locals, exactly like the serial loop reusing one frame.
	sub := rt.IP.NewIterFrame(&a.Ctx, lp.fr)
	defer rt.IP.ReleaseFrame(sub)
	for {
		if rt.failed.Load() {
			return
		}
		if err := rt.interrupt(); err != nil {
			rt.setErr(err)
			return
		}
		start, end, ok := lp.Next()
		if !ok {
			return
		}
		atomic.AddInt64(&rt.Stats.Chunks, 1)
		rt.injectChunk()
		for i := start; i < end; i += step {
			atomic.AddInt64(&rt.Stats.Iterations, 1)
			if err := rt.IP.RunLoopIteration(sub, fs, i); err != nil {
				rt.setErr(err)
				return
			}
		}
	}
}

// isolate is Claim's panic isolation; the loop's label is built here,
// where it is read.
func (lp *loopRun) isolate() {
	if r := recover(); r != nil {
		atomic.AddInt64(&lp.rt.Stats.TaskPanics, 1)
		label := fmt.Sprintf("%s (loop at %s)", lp.fr.Method().FullName(), lp.fs.Pos())
		lp.rt.setErr(newTaskError("loop", label, r))
	}
}
