package rt

import (
	"fmt"
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

// lane is one goroutine's LIFO free list of activation records. Each
// scheduler handle belongs to one goroutine — a pool worker's to that
// worker, the external handle (and nil) to RunContext's — so the lane
// its ID selects needs no lock.
type lane struct{ free *activation }

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
// hook returns). Records cross goroutines — taken by the spawner, put
// back by whichever worker ran the task — hence a sync.Pool.
type spawnRec struct {
	rt     *Runtime
	callee *types.Method
	recv   *interp.Object
	args   []interp.Value
	j      *nativert.SpecJournal
	ver    codegen.Version
	runFn  func(*worker) // run, bound once
}

var spawnRecs sync.Pool // of *spawnRec

// spawn creates a task executing callee as version ver, journaling into j
// in a speculative region.
func (rt *Runtime) spawn(w *worker, j *nativert.SpecJournal, callee *types.Method, recv *interp.Object, args []interp.Value, ver codegen.Version) {
	atomic.AddInt64(&rt.Stats.Tasks, 1)
	s, _ := spawnRecs.Get().(*spawnRec)
	if s == nil {
		s = new(spawnRec)
		s.runFn = s.run
	}
	s.rt, s.callee, s.recv, s.j, s.ver = rt, callee, recv, j, ver
	s.args = append(s.args[:0], args...)
	rt.pool.Spawn(w, "", s.runFn)
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
