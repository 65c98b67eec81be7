// Package tracer executes a planned program once, single-threaded, and
// records its parallel structure as an event trace: serial phases,
// parallel regions with task trees, parallel loops with per-iteration
// tasks, and critical sections on concrete objects. The DASH simulator
// (internal/simdash) schedules these traces on a configurable number of
// virtual processors.
package tracer

import (
	"commute/internal/codegen"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
	"commute/internal/interp"
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

// Collect runs the program and returns its trace.
func Collect(ip *interp.Interp, plan *codegen.Plan) (*Trace, error) {
	c := &collector{ip: ip, plan: plan, trace: &Trace{}}
	if ip.Prog.Main == nil {
		return nil, &interp.RuntimeError{Msg: "program has no main function"}
	}
	_, err := ip.Call(c.serialCtx(), ip.Prog.Main, nil, nil)
	if err != nil {
		return nil, err
	}
	c.flushSerial("main")
	return c.trace, nil
}

type collector struct {
	ip          *interp.Interp
	plan        *codegen.Plan
	trace       *Trace
	serialUnits int64
	// replicated collects the objects whose locks the §6.3.4
	// replication optimization removed within the current region.
	replicated map[int64]bool
}

func (c *collector) flushSerial(label string) {
	if c.serialUnits > 0 {
		c.trace.Phases = append(c.trace.Phases, Phase{Label: label, Serial: c.serialUnits})
		c.serialUnits = 0
	}
}

// serialCtx records serial compute and opens parallel regions.
func (c *collector) serialCtx() *interp.Ctx {
	ctx := c.ip.NewCtx()
	ctx.Charge = func(units int64) { c.serialUnits += units }
	ctx.Invoke = func(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
		if c.plan.RegionRoot(site.Callee) {
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
		return c.ip.Call(ctx, site.Callee, recv, args)
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
	serial  bool  // a serial version is running: every loop is serial
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
	ctx := c.ip.NewCtx()
	ctx.Charge = ts.charge

	if ver == codegen.VersionSerial {
		// Plain serial execution inside the task.
		_, err := c.ip.Call(ctx, m, recv, args)
		ts.flushCompute()
		return err
	}

	locked := mp.NeedsLock && recv != nil
	if locked && c.plan.Opt.ReplicateAccumulators && mp.Replicable {
		// §6.3.4 replication: the accumulations run against a
		// per-processor replica — no lock, no contention; the region
		// pays a reduction at the end.
		locked = false
		if c.replicated != nil {
			c.replicated[recv.ID] = true
		}
	}
	var lockObj int64
	if locked {
		lockObj = recv.ID
		ts.beginCrit(lockObj)
	}

	ctx.Invoke = c.invoker(ctx, ts, mp, ver, lockObj)
	ctx.ForLoop = func(fs *ast.ForStmt, fr *interp.Frame, from, to, step int64) (bool, error) {
		lp := c.plan.Loops[fs]
		if lp == nil || !lp.Parallel || ts.serial {
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
		ictx := c.ip.NewCtx()
		ictx.Charge = its.charge
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
		if sc.Run == codegen.VersionSerial && !sc.Spawn {
			// The serial version, inline: its units accrue to the current
			// (possibly critical) segment. The call hook is off while it
			// runs; the loop hook stays on and declines, because an offer
			// costs units — the engines charge the bound they evaluate
			// for it — and the simulated times of the paper's tables
			// count one for every counted loop below a region.
			invoke := ctx.Invoke
			ctx.Invoke, ts.serial = nil, true
			v, err := c.ip.Call(ctx, site.Callee, recv, args)
			ctx.Invoke, ts.serial = invoke, false
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
