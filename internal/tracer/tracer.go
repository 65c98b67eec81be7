// Package tracer executes a planned program once, single-threaded, and
// records its parallel structure as an event trace: serial phases,
// parallel regions with task trees, parallel loops with per-iteration
// tasks, and critical sections on concrete objects. The DASH simulator
// (internal/simdash) schedules these traces on a configurable number of
// virtual processors.
//
// The trace is collected on the tree walker (interp.EngineWalk), the only
// engine that charges cost units.
package tracer

import (
	"context"
	"errors"

	"commute/internal/codegen"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/nativert"
)

// EventKind discriminates task events.
type EventKind int

// Task event kinds.
const (
	EvCompute EventKind = iota // Units of computation
	EvCrit                     // Units of computation inside a critical section on Obj
	EvSpawn                    // creation of Child (ready immediately)
	EvLoop                     // a parallel loop: Iters run under GSS, barrier before continuing
)

// Event is one step of a task.
type Event struct {
	Kind  EventKind
	Units int64
	Obj   int64
	Child *Task
	Iters []*Task
}

// Task is a unit of parallel work: an ordered event sequence.
type Task struct {
	Events []Event
}

// TotalUnits returns the compute units in the task including critical
// sections and, recursively, loops and children.
func (t *Task) TotalUnits() int64 {
	var sum int64
	for _, e := range t.Events {
		switch e.Kind {
		case EvCompute, EvCrit:
			sum += e.Units
		case EvSpawn:
			sum += e.Child.TotalUnits()
		case EvLoop:
			for _, it := range e.Iters {
				sum += it.TotalUnits()
			}
		}
	}
	return sum
}

// Phase is one segment of the program: a serial section or a parallel
// region rooted at a task.
type Phase struct {
	Label  string
	Serial int64 // serial compute units (Root == nil)
	Root   *Task // parallel region (Serial ignored)
	// ReduceObjects counts the distinct objects whose accumulations ran
	// against per-processor replicas in this region (the §6.3.4
	// replication optimization); the simulator charges a phase-end
	// reduction proportional to replicas × objects.
	ReduceObjects int
}

// Trace is the recorded structure of one program execution.
type Trace struct {
	Phases []Phase
}

// SerialUnits returns the units executed in serial phases.
func (tr *Trace) SerialUnits() int64 {
	var sum int64
	for _, p := range tr.Phases {
		if p.Root == nil {
			sum += p.Serial
		}
	}
	return sum
}

// ParallelUnits returns the units inside parallel regions.
func (tr *Trace) ParallelUnits() int64 {
	var sum int64
	for _, p := range tr.Phases {
		if p.Root != nil {
			sum += p.Root.TotalUnits()
		}
	}
	return sum
}

// Collect runs the program on ip, which must be a tree-walker
// interpreter, and returns its trace. A deadline or cancellation on ctx
// aborts the run between statements.
func Collect(ctx context.Context, ip *interp.Interp, plan *codegen.Plan) (*Trace, error) {
	if ip.Engine() != interp.EngineWalk {
		return nil, errors.New("tracer: the trace needs a tree-walker interpreter; compiled code charges no cost units")
	}
	if ip.Prog.Main == nil {
		return nil, &interp.RuntimeError{Msg: "program has no main function"}
	}
	c := &collector{ip: ip, plan: plan, trace: &Trace{}, ctx: ctx}
	_, err := ip.Call(c.serialCtx(), ip.Prog.Main, nil, nil)
	if err != nil {
		return nil, err
	}
	c.flushSerial("main")
	return c.trace, nil
}

type collector struct {
	ctx         context.Context
	ip          *interp.Interp
	plan        *codegen.Plan
	trace       *Trace
	serialUnits int64
	// replicated collects the objects whose locks the §6.3.4
	// replication optimization removed within the current region.
	replicated map[int64]bool
}

// newCtx is an execution context whose units go to charge and whose
// Interrupt hook reports the end of Collect's ctx.
func (c *collector) newCtx(charge func(int64)) *interp.Ctx {
	ctx := c.ip.NewCtx()
	ctx.Charge = charge
	ctx.Interrupt = func() error { return context.Cause(c.ctx) }
	return ctx
}

func (c *collector) flushSerial(label string) {
	if c.serialUnits > 0 {
		c.trace.Phases = append(c.trace.Phases, Phase{Label: label, Serial: c.serialUnits})
		c.serialUnits = 0
	}
}

// serialCtx records serial compute and opens parallel regions. A call of
// a region root is an entry under the zero run policy, with no
// granularity cutoff (the simulated machine is DASH, not this one): it
// opens a region exactly when nativert's Enter answers Parallel, as
// under rt's serialCtx. Any other root runs its serial version with the
// hook off, so no root below it is entered.
func (c *collector) serialCtx() *interp.Ctx {
	ctx := c.newCtx(func(units int64) { c.serialUnits += units })
	var st nativert.Stats
	ctx.Invoke = func(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
		if !c.plan.RegionRoot(site.Callee) {
			return c.ip.Call(ctx, site.Callee, recv, args)
		}
		if (nativert.Policy{Parallel: true}).Enter(&st, c.plan.Methods[site.Callee].EntryFacts(), nil) != nativert.Parallel {
			hook := ctx.Invoke
			ctx.Invoke = nil
			v, err := c.ip.Call(ctx, site.Callee, recv, args)
			ctx.Invoke = hook
			return v, err
		}
		c.flushSerial(site.Caller.FullName())
		root := &Task{}
		c.replicated = make(map[int64]bool)
		err := c.runVersion(root, site.Callee, recv, args, codegen.VersionParallel)
		if err != nil {
			return interp.Value{}, err
		}
		c.trace.Phases = append(c.trace.Phases, Phase{
			Label: site.Callee.FullName(), Root: root,
			ReduceObjects: len(c.replicated),
		})
		c.replicated = nil
		return interp.Value{}, nil
	}
	return ctx
}

// taskState tracks the event stream of one task while the interpreter
// runs inside it.
type taskState struct {
	task    *Task
	compute int64 // pending compute units
	critObj int64 // active critical-section object (0 = none)
	crit    int64 // pending crit units
}

func (ts *taskState) charge(units int64) {
	if ts.critObj != 0 {
		ts.crit += units
		return
	}
	ts.compute += units
}

func (ts *taskState) flushCompute() {
	if ts.compute > 0 {
		ts.task.Events = append(ts.task.Events, Event{Kind: EvCompute, Units: ts.compute})
		ts.compute = 0
	}
}

func (ts *taskState) beginCrit(obj int64) {
	if ts.critObj != 0 {
		return // nested crits flatten into the outer one
	}
	ts.flushCompute()
	ts.critObj = obj
}

func (ts *taskState) endCrit(obj int64) {
	if ts.critObj != obj {
		return
	}
	ts.task.Events = append(ts.task.Events, Event{Kind: EvCrit, Units: ts.crit, Obj: obj})
	ts.critObj = 0
	ts.crit = 0
}

// runVersion executes one method activation inside a task as the version
// the plan's call rule chose (codegen.MethodPlan.Call), recording its lock
// and its dispatches as events.
func (c *collector) runVersion(task *Task, m *types.Method, recv *interp.Object, args []interp.Value, ver codegen.Version) error {
	mp := c.plan.Methods[m]
	ts := &taskState{task: task}
	ctx := c.newCtx(ts.charge)

	if ver == codegen.VersionSerial {
		// Plain serial execution inside the task.
		_, err := c.ip.Call(ctx, m, recv, args)
		ts.flushCompute()
		return err
	}

	locked := mp.NeedsLock && recv != nil
	var lockObj int64
	if locked {
		lockObj = recv.ID
		ts.beginCrit(lockObj)
	}

	ctx.Invoke = c.invoker(ctx, ts, mp, ver, lockObj)
	ctx.ForLoop = func(fs *ast.ForStmt, fr *interp.Frame, from, to, step int64) (bool, error) {
		lp := c.plan.Loops[fs]
		if lp == nil || !lp.Parallel {
			return false, nil
		}
		if ver == codegen.VersionMutex && !c.plan.Opt.DisableSuppression {
			return false, nil
		}
		if locked && !mp.HoldsLockThrough {
			ts.endCrit(lockObj)
		}
		ts.flushCompute()
		// One claimant runs every iteration, in order, on one private
		// copy of the frame — a schedule rt.parallelLoop can produce.
		var iters []*Task
		its := &taskState{}
		ictx := c.newCtx(its.charge)
		ictx.Invoke = c.invoker(ictx, its, mp, codegen.VersionIteration, 0)
		sub := c.ip.NewIterFrame(ictx, fr)
		defer c.ip.ReleaseFrame(sub)
		for i := from; i < to; i += step {
			its.task = &Task{}
			if err := c.ip.RunLoopIteration(sub, fs, i); err != nil {
				return true, err
			}
			its.flushCompute()
			iters = append(iters, its.task)
		}
		task.Events = append(task.Events, Event{Kind: EvLoop, Iters: iters})
		return true, nil
	}

	_, err := c.ip.Call(ctx, m, recv, args)
	if locked {
		ts.endCrit(lockObj)
	}
	ts.flushCompute()
	return err
}

// invoker is the call dispatcher of a body of mp's method running as
// version in on ctx, its events going to ts; lockObj is the receiver
// whose critical section is open (0: none).
func (c *collector) invoker(ctx *interp.Ctx, ts *taskState, mp *codegen.MethodPlan, in codegen.Version, lockObj int64) func(*types.CallSite, *interp.Object, []interp.Value) (interp.Value, error) {
	return func(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
		sc := mp.Call(in, site, c.plan.Methods[site.Callee])
		if sc.Release && lockObj != 0 {
			ts.endCrit(lockObj)
		}
		if sc.Replica {
			// §6.3.4 replication: the accumulation runs against this
			// processor's replica — no lock, no contention, compute events
			// of their own; the region pays a reduction at its end.
			c.replicated[recv.ID] = true
			ts.flushCompute()
			sub := &Task{}
			err := c.runVersion(sub, site.Callee, recv, args, codegen.VersionSerial)
			ts.task.Events = append(ts.task.Events, sub.Events...)
			return interp.Value{}, err
		}
		if sc.Run == codegen.VersionSerial && !sc.Spawn {
			// The serial version, inline: its units accrue to the current
			// (possibly critical) segment. Both hooks are off while it
			// runs, as in rt: every call below it is a serial version and
			// every loop a serial loop, offered to nobody.
			invoke, forLoop := ctx.Invoke, ctx.ForLoop
			ctx.Invoke, ctx.ForLoop = nil, nil
			v, err := c.ip.Call(ctx, site.Callee, recv, args)
			ctx.Invoke, ctx.ForLoop = invoke, forLoop
			return v, err
		}
		ts.flushCompute()
		sub := &Task{}
		if err := c.runVersion(sub, site.Callee, recv, args, sc.Run); err != nil {
			return interp.Value{}, err
		}
		if sc.Spawn {
			ts.task.Events = append(ts.task.Events, Event{Kind: EvSpawn, Child: sub})
		} else {
			// A mutex version on this task's stack: its lock appears as a
			// crit in this same task.
			ts.task.Events = append(ts.task.Events, sub.Events...)
		}
		return interp.Value{}, nil
	}
}
