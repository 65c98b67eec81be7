// Package rt is the run-time system the generated parallel code
// targets (§5 and §6.1 of Rinard & Diniz 1996): task creation
// (spawn/wait), per-object mutual exclusion locks, and guided
// self-scheduling for parallel loops — implemented with goroutine
// worker pools. It executes a checked program under a codegen.Plan.
//
// The runtime is hardened against mid-region failure: panics in
// spawned tasks, loop claimants, and region roots are isolated into
// TaskError values, and a caller context's cancellation or deadline
// drains the pool promptly. A failed region fails the run: it is never
// re-run, because effects its tasks already applied cannot be undone.
// The one re-execution is a speculative region's serial rerun after an
// abort, which is exact because no buffered write reached the heap. A
// FaultPlan injects deterministic faults at the concurrency boundaries
// to test all of this.
package rt

import (
	"context"
	"errors"
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

// Stats counts run-time events; the type is nativert's, which counts the
// region entries of both runtimes in it (nativert.Policy.Enter).
type Stats = nativert.Stats

// Runtime executes a program in parallel according to a plan.
type Runtime struct {
	IP      *interp.Interp
	Plan    *codegen.Plan
	Workers int

	// MaxSteps bounds interpreter statements across the whole run
	// (0: unlimited), measured at interp.InterruptStride granularity —
	// a deterministic guard against runaway programs that complements
	// wall-clock deadlines.
	MaxSteps int64

	// Conditional and Speculate are the run's entry policy
	// (nativert.Policy, where each is described; a plan carries guards
	// and speculative versions only when built with
	// codegen.Options.ConditionalGuards / SpeculateRejected).
	Conditional bool
	Speculate   SpecMode

	// Faults, when non-nil, injects deterministic panics, delays, and
	// cancellations at the runtime's concurrency boundaries (tests).
	Faults *FaultPlan

	Stats Stats

	parent context.Context
	runCtx context.Context
	cancel context.CancelCauseFunc
	steps  atomic.Int64

	// Per-run state (DESIGN.md §8, region life cycle).
	methods []methodEntry // dispatch table, by types.Method.ID
	pool    *rtkit.Pool   // started at the first region (regionPool)
	lanes   []*lane       // activation free lists, by worker ID + 1

	// Speculation (spec.go): the region in flight, if it is speculative.
	spec *nativert.SpecRegion

	errMu  sync.Mutex
	err    error
	failed atomic.Bool
}

// New returns a runtime with the given worker count.
func New(ip *interp.Interp, plan *codegen.Plan, workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	return &Runtime{IP: ip, Plan: plan, Workers: workers}
}

// setErr records err on the first-error-wins path.
func (rt *Runtime) setErr(err error) {
	if err == nil {
		return
	}
	rt.errMu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.errMu.Unlock()
	rt.failed.Store(true)
}

func (rt *Runtime) firstErr() error {
	rt.errMu.Lock()
	defer rt.errMu.Unlock()
	return rt.err
}

// clearErr resets the error path before a speculative region's serial
// rerun.
func (rt *Runtime) clearErr() {
	rt.errMu.Lock()
	rt.err = nil
	rt.errMu.Unlock()
	rt.failed.Store(false)
}

// cancelled reports the run's cancellation cause, if any.
func (rt *Runtime) cancelled() error {
	if rt.runCtx == nil {
		return nil
	}
	if rt.runCtx.Err() != nil {
		return context.Cause(rt.runCtx)
	}
	return nil
}

// interrupt is the hook the interpreter polls between statements: it
// surfaces cancellation and the global step budget into user-code
// loops, and aborts sibling work promptly once the region has failed.
func (rt *Runtime) interrupt() error {
	if rt.failed.Load() {
		if err := rt.firstErr(); err != nil {
			return err
		}
	}
	if err := rt.cancelled(); err != nil {
		return err
	}
	if rt.MaxSteps > 0 && rt.steps.Add(interp.InterruptStride) > rt.MaxSteps {
		return &interp.RuntimeError{Msg: fmt.Sprintf("run step budget of %d statements exhausted", rt.MaxSteps)}
	}
	return nil
}

// regionEntryCost is what entering a parallel region costs this runtime,
// in the DASH cost units of the plan's work estimate
// (codegen.MethodPlan.Work); the emitter has its own for native code. A
// region root whose whole serial execution is bounded below it is run
// serially: parallel execution cannot win.
//
// Derivation (EXPERIMENTS.md, "Granularity cutoff"): a proven or guarded
// region takes 2.7-3.3 µs to enter and leave beyond the work inside it
// (run-fine and BenchmarkRegionEntry, two workers; speculative ones cost
// more), and the compiled engine retires a cost unit in 4.1-4.3 ns
// (BenchmarkCostUnit: the units one tree-walker run charges, over the
// time of the compiled runs; compiled code charges none), so an entry is
// ≈ 650 units. Two workers at best
// halve the work, saving W/2, which pays for the entry only when
// W > 2 × 650. The constant is that break-even at two workers, at the
// low end of the measurements; nothing reads it but the entry rule.
const regionEntryCost = 1300

// Declines reports whether m is a region root this runtime's granularity
// cutoff takes back: a call of it from serial code runs its serial
// version.
func Declines(p *codegen.Plan, m *types.Method) bool {
	return p.RegionRoot(m) && p.Methods[m].WorkUnder(regionEntryCost)
}

// methodEntry is one row of the run's dispatch table.
type methodEntry struct {
	mp *codegen.MethodPlan // nil: the plan has no entry for the method
	// root is set when a call from serial code is a region entry
	// (Plan.RegionRoot); facts is what the entry rule reads of its plan.
	root  bool
	facts nativert.Root
	// declined is set on a root the granularity cutoff takes back: its
	// static work bound is under regionEntryCost.
	declined bool
	// guard is a Conditional root's compiled guard, built at its first
	// region entry (guardHolds).
	guard func() bool
	// readOK and writeOK are a speculative root's declared-effect key
	// sets, built at its first speculative region (openSpec).
	readOK, writeOK map[string]bool
}

// Run executes main with no caller context (no deadline).
func (rt *Runtime) Run() error { return rt.RunContext(context.Background()) }

// RunContext executes main under parent: serial code runs inline;
// calls to parallel methods open parallel regions. Cancellation or
// deadline expiry on parent aborts the run promptly — it is observed
// at task-start and chunk-claim boundaries and, via the interpreter's
// interrupt hook, inside long-running statement loops. The worker pool
// the regions share is shut down before RunContext returns, whichever
// way the run ends. Regions run the closure-compiled bodies, and a
// speculative region's monitored activations the tree walker (interp.Mon):
// an interpreter that walks everything is the serial reference, and is
// refused.
func (rt *Runtime) RunContext(parent context.Context) error {
	if rt.IP.Prog.Main == nil {
		return &interp.RuntimeError{Msg: "program has no main function"}
	}
	if rt.IP.Engine() == interp.EngineWalk {
		return errors.New("rt: the parallel runtime needs a compiled-engine interpreter; a tree walker interpreter is the serial reference")
	}
	rt.parent = parent
	rt.runCtx, rt.cancel = context.WithCancelCause(parent)
	defer func() {
		// Every region drained the pool before returning, on failure
		// paths too, so Wait finds nothing pending and returns at once.
		if rt.pool != nil {
			rt.pool.Wait()
			rt.pool = nil
		}
		rt.cancel(nil)
	}()
	rt.methods = make([]methodEntry, len(rt.IP.Prog.Methods))
	for m, mp := range rt.Plan.Methods {
		rt.methods[m.ID] = methodEntry{mp: mp, root: rt.Plan.RegionRoot(m), facts: mp.EntryFacts(), declined: Declines(rt.Plan, m)}
	}
	_, err := rt.IP.Call(rt.serialCtx(), rt.IP.Prog.Main, nil, nil)
	rt.setErr(err)
	return rt.firstErr()
}

// serialCtx executes serial code. A call of a region root the cutoff
// does not decline is a region entry: nativert's Enter says which tier it
// takes under the run's policy, as it does for the emitted R_ wrappers.
func (rt *Runtime) serialCtx() *interp.Ctx {
	ctx := rt.IP.NewCtx()
	ctx.Interrupt = rt.interrupt
	policy := nativert.Policy{Parallel: true, Conditional: rt.Conditional, Speculate: rt.Speculate}
	ctx.Invoke = func(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
		e := &rt.methods[site.Callee.ID]
		switch {
		case e.declined:
			// Not worth a region, whatever its tier and whatever the
			// policies say (force overrides confidence, not
			// profitability).
			rt.Stats.RegionsDeclined++
		case e.root:
			// A root returns no value (Plan.RegionRoot).
			switch policy.Enter(&rt.Stats, e.facts, func() bool { return rt.guardHolds(e) }) {
			case nativert.Parallel:
				return interp.Value{}, rt.runRoot(nil, site.Callee, recv, args)
			case nativert.Speculative:
				return interp.Value{}, rt.runSpeculativeRegion(e, recv, args)
			}
		default:
			// Not a region root: serial code, which may enter the roots it
			// calls.
			return rt.IP.Call(ctx, site.Callee, recv, args)
		}
		// A declined root, or one whose tier is serial: its serial version
		// and nothing else. The hook is off while it runs, as S_m calls
		// only S_ versions, so no root below it is entered.
		hook := ctx.Invoke
		ctx.Invoke = nil
		v, err := rt.IP.Call(ctx, site.Callee, recv, args)
		ctx.Invoke = hook
		return v, err
	}
	return ctx
}

// runRoot executes one serial→parallel region transition (§5.3: the
// serial version invokes the parallel version and blocks until the region
// completes): the root activation runs the parallel version on the
// caller's goroutine under panic isolation (journaling into j in a
// speculative region), the pool is always drained, and the replicas the
// region's accumulations touched are folded back. When it returns — with
// the region's first error, if any — no task or loop helper of the region
// is queued or running.
func (rt *Runtime) runRoot(j *nativert.SpecJournal, m *types.Method, recv *interp.Object, args []interp.Value) error {
	pool := rt.regionPool()
	func() {
		defer rt.isolate("region", m)
		rt.callVersion(pool.External(), j, m, recv, args, codegen.VersionParallel, 0)
	}()
	pool.Drain()
	rt.foldReplicas()
	return rt.firstErr()
}

// activation is the runtime's record of one method activation (or one
// loop claimant) inside a region: the interpreter context the body runs
// under and what its two dispatcher hooks need. Records are recycled
// through their goroutine's lane, strictly LIFO as activations nest, so
// a steady-state activation allocates nothing; the hooks are bound to
// the record once, when it is first made.
type activation struct {
	interp.Ctx
	rt   *Runtime
	lane *lane
	next *activation // lane free list

	w        *worker             // the executing goroutine's scheduler handle
	log      specLog             // monitors into the task's journal in a speculative region
	mp       *codegen.MethodPlan // the method whose body runs; a loop claimant carries the loop's
	ver      codegen.Version
	recv     *interp.Object
	lockHeld bool // recv's lock is held by this activation

	invokeFn  func(*types.CallSite, *interp.Object, []interp.Value) (interp.Value, error)
	forLoopFn func(*ast.ForStmt, *interp.Frame, int64, int64, int64) (bool, error)
}

// activate takes a record from w's lane, readied as a plain serial
// context seeded at the given activation depth: interrupt hook and depth
// guard wired, no dispatcher hooks, every access journaled into j (if any).
func (rt *Runtime) activate(w *worker, j *nativert.SpecJournal, depth int) *activation {
	ln := rt.lanes[0]
	if w != nil {
		ln = rt.lanes[w.ID()+1]
	}
	a := ln.free
	if a == nil {
		a = &activation{rt: rt, lane: ln}
		a.IP, a.Interrupt = rt.IP, rt.interrupt
		a.invokeFn, a.forLoopFn = a.invoke, a.forLoop
	} else {
		ln.free = a.next
	}
	a.Recycle(depth)
	a.w = w
	if j != nil {
		a.log.j = j
		a.Mon = &a.log
	}
	return a
}

// done ends the activation: the receiver lock, if still held, is
// released — also when the activation panics, so panic isolation never
// strands a held lock (which would deadlock the region) — and the record
// goes back to its lane.
func (a *activation) done() {
	a.unlock()
	a.Invoke, a.ForLoop, a.Mon = nil, nil, nil
	a.log.j, a.mp, a.recv = nil, nil, nil
	a.next, a.lane.free = a.lane.free, a
}

func (a *activation) unlock() {
	if a.lockHeld {
		a.lockHeld = false
		a.recv.Mutex.Unlock()
	}
}

// callVersion executes one method activation as the version the call
// rule chose (a serial version is the plain body: no hooks, no lock),
// handling lock acquisition/release per the plan. w is the scheduler
// handle of the executing goroutine (a pool worker, the pool's external
// handle for the region root, or nil for a speculative region's serial
// rerun): spawns from a
// pool worker push onto its own deque. A non-nil j makes the activation
// speculative: no locks — isolation comes from the journals — and every
// access is monitored; spawned children get fresh journals, inline
// continuations share j. depth seeds the activation-depth guard: inline
// continuations (mutex versions) keep counting on the
// current goroutine stack, while spawned tasks restart at zero on a
// fresh stack.
func (rt *Runtime) callVersion(w *worker, j *nativert.SpecJournal, m *types.Method, recv *interp.Object, args []interp.Value, ver codegen.Version, depth int) error {
	if rt.failed.Load() {
		return nil
	}
	a := rt.activate(w, j, depth)
	defer a.done()
	if ver != codegen.VersionSerial {
		mp := rt.methods[m.ID].mp
		a.mp, a.ver, a.recv = mp, ver, recv
		switch {
		case ver == codegen.VersionMutex && mp.Coarse:
			// The serial version under the receiver lock: every site
			// answers serial (MethodPlan.Call), so both hooks stay off.
		case ver == codegen.VersionMutex:
			a.Invoke = a.invokeFn
		default:
			a.Invoke, a.ForLoop = a.invokeFn, a.forLoopFn
		}
		if j == nil && mp.NeedsLock && recv != nil {
			atomic.AddInt64(&rt.Stats.LockAcquires, 1)
			rt.injectLock()
			recv.Mutex.Lock()
			a.lockHeld = true
		}
	}
	_, err := rt.IP.Call(&a.Ctx, m, recv, args)
	rt.setErr(err)
	return err
}

// invoke is the activation's call dispatcher: the plan's call rule
// (codegen.MethodPlan.Call) says what the site does, this does it.
func (a *activation) invoke(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
	rt := a.rt
	sc := a.mp.Call(a.ver, site, rt.methods[site.Callee.ID].mp)
	if sc.Release {
		a.unlock()
	}
	switch {
	case sc.Spawn:
		var j *nativert.SpecJournal
		if a.log.j != nil {
			j = rt.spec.NewJournal()
		}
		rt.spawn(a.w, a.Mon, j, site.Callee, recv, args, sc.Run)
		return interp.Value{}, nil
	case sc.Replica && a.log.j != nil:
		// The journal isolates the accumulation: the callee's mutex
		// version, journaled.
		return interp.Value{}, rt.callVersion(a.w, a.log.j, site.Callee, recv, args, codegen.VersionMutex, a.Depth)
	case sc.Replica:
		recv = a.lane.replica(rt, recv)
	case sc.Run != codegen.VersionSerial:
		return interp.Value{}, rt.callVersion(a.w, a.log.j, site.Callee, recv, args, sc.Run, a.Depth)
	}
	// The serial version, on this activation: both hooks are off while it
	// runs, so every call below it is a serial version and every loop a
	// serial loop. What lives on the context stays — the journal, the
	// interrupt poll, the depth count.
	invoke, forLoop := a.Invoke, a.ForLoop
	a.Invoke, a.ForLoop = nil, nil
	v, err := rt.IP.Call(&a.Ctx, site.Callee, recv, args)
	a.Invoke, a.ForLoop = invoke, forLoop
	if sc.Replica {
		return interp.Value{}, err
	}
	return v, err
}

// forLoop is the activation's loop dispatcher (parallel versions only).
// Without hoisting the lock covers only the object section, which ends at
// the first spawned invocation (invoke) or parallel loop.
func (a *activation) forLoop(fs *ast.ForStmt, fr *interp.Frame, from, to, step int64) (bool, error) {
	lp := a.rt.Plan.Loops[fs]
	if lp == nil || !lp.Parallel {
		return false, nil
	}
	if !a.mp.HoldsLockThrough {
		a.unlock()
	}
	return true, a.rt.parallelLoop(a.w, a.log.j != nil, a.Depth, fs, fr, from, to, step)
}
