package interp

import (
	"io"
	"math"
	"sync"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
	"commute/rtkit"
)

// Engine selects the execution strategy for method bodies.
type Engine uint8

const (
	// EngineCompiled executes closure-compiled bodies (the default):
	// each method is lowered once per program to a tree of thunks, so
	// steady-state execution performs no AST type-switches.
	EngineCompiled Engine = iota
	// EngineWalk executes the tree-walking evaluator: the semantic
	// baseline of the differential tests. It runs serially only — it
	// takes no effect monitor (Ctx.Mon), and the parallel runtime
	// refuses it.
	EngineWalk
)

// Interp holds the immutable program and the global object store.
type Interp struct {
	Prog    *types.Program
	res     *resolution
	engine  Engine
	globals []*Object // declaration order, indexed by SymGlobal Ident.Slot
	Globals map[string]*Object
	Out     io.Writer
}

// New allocates an interpreter with default-initialized globals,
// executing closure-compiled bodies. The program's slot resolution and
// compiled bodies are computed once per program and shared by every
// interpreter instance.
func New(prog *types.Program, out io.Writer) *Interp {
	return NewEngine(prog, out, EngineCompiled)
}

// NewEngine allocates an interpreter using the given execution engine.
func NewEngine(prog *types.Program, out io.Writer, eng Engine) *Interp {
	ip := &Interp{
		Prog:    prog,
		res:     resolve(prog),
		engine:  eng,
		Globals: make(map[string]*Object),
		Out:     out,
	}
	for _, g := range prog.GlobalSeq {
		o := ip.NewObject(g.Class)
		ip.globals = append(ip.globals, o)
		ip.Globals[g.Name] = o
	}
	return ip
}

// Engine reports the interpreter's execution engine.
func (ip *Interp) Engine() Engine { return ip.engine }

// FieldSlot exposes slot resolution for the runtime and tests.
func (ip *Interp) FieldSlot(cl *types.Class, declClass, field string) int {
	return ip.res.layout.slot(cl, declClass, field)
}

// Ctx carries the execution strategy: cost accounting and the call /
// loop dispatchers that the parallel executors override. A zero-value
// strategy executes serially and charges into Cost.
type Ctx struct {
	IP *Interp

	// Charge accounts abstract cost units (nil: accumulate into Cost).
	Charge func(units int64)
	// Invoke dispatches a non-builtin call after receiver and argument
	// evaluation (nil: execute inline serially). args belongs to the
	// caller and is recycled as soon as the hook returns: a hook that
	// hands the arguments to something outliving the call (a spawned
	// task) copies them first.
	Invoke func(site *types.CallSite, recv *Object, args []Value) (Value, error)
	// ForLoop may take over a for loop given its evaluated header
	// (nil or returning handled=false: execute serially). The body
	// callback runs one iteration.
	ForLoop func(fs *ast.ForStmt, fr *Frame, from, to, step int64) (handled bool, err error)

	// Mon, when non-nil, observes every object-field and array-element
	// access and may redirect loads to buffered state (speculative
	// execution). The compiled engine switches to a second set of
	// closure-compiled bodies whose load/store kernels call the monitor
	// unconditionally — the unmonitored compiled hot path carries no
	// monitor checks at all. The tree walker has no monitored kernels
	// and refuses to run under one.
	Mon Mon

	// Interrupt, when non-nil, is polled every InterruptStride
	// statements; a non-nil result aborts execution with that error.
	// Cancellation and deadlines reach user code through this hook, so
	// an infinite loop in a user program returns an error instead of
	// hanging the process.
	Interrupt func() error
	// MaxSteps bounds the statements executed under this context
	// (0: unlimited). Exceeding it is a RuntimeError, giving callers a
	// deterministic guard against runaway programs.
	MaxSteps int64
	// MaxDepth bounds the method-activation depth (0: DefaultMaxDepth).
	// Unbounded recursion in a user program returns a RuntimeError
	// instead of overflowing the goroutine stack.
	MaxDepth int
	// Depth is the current activation depth. Parallel executors seed it
	// when deriving a context mid-computation so inline recursion keeps
	// counting across derived contexts.
	Depth int

	// Cost is the default cost accumulator.
	Cost int64

	steps int64

	// argScratch recycles the compiled engine's call-argument slices,
	// LIFO, for hooked and unhooked calls alike (see Invoke). A Ctx is
	// goroutine-local, so no locking is needed.
	argScratch [][]Value
}

// InterruptStride is how many statements execute between Interrupt
// polls: frequent enough that a cancelled tight loop stops in
// microseconds, rare enough that the poll doesn't show up in profiles.
const InterruptStride = 64

// DefaultMaxDepth is the activation-depth limit when Ctx.MaxDepth is
// zero. Deep enough for the applications' recursive traversals, shallow
// enough that the interpreter's Go-stack usage stays far from overflow.
const DefaultMaxDepth = 4096

// NewCtx returns a serial execution context.
func (ip *Interp) NewCtx() *Ctx { return &Ctx{IP: ip} }

// Recycle readies a context for another activation at the given depth,
// as NewCtx would have left it: the step and cost counters restart (so
// Interrupt polling and MaxSteps behave as on a fresh context) while
// the hooks and the argument scratch are kept.
func (c *Ctx) Recycle(depth int) {
	c.Depth, c.Cost, c.steps = depth, 0, 0
}

// step enforces the statement budget and polls the interrupt hook.
func (c *Ctx) step() error {
	c.steps++
	if c.MaxSteps > 0 && c.steps > c.MaxSteps {
		return rtErrf("step budget of %d statements exhausted", c.MaxSteps)
	}
	if c.Interrupt != nil && c.steps%InterruptStride == 0 {
		if err := c.Interrupt(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Ctx) charge(units int64) {
	if c.Charge != nil {
		c.Charge(units)
		return
	}
	c.Cost += units
}

// getArgs returns an argument slice of length n, recycling the most
// recently released slice when it fits.
func (c *Ctx) getArgs(n int) []Value {
	if ln := len(c.argScratch); ln > 0 {
		s := c.argScratch[ln-1]
		if cap(s) >= n {
			c.argScratch = c.argScratch[:ln-1]
			return s[:n]
		}
	}
	return make([]Value, n)
}

// putArgs releases an argument slice obtained from getArgs. The callee
// has already copied the arguments into its frame.
func (c *Ctx) putArgs(s []Value) {
	clear(s)
	c.argScratch = append(c.argScratch, s)
}

// Frame is one activation record. Variables live in a flat slot array
// (parameters first, then locals in declaration order) — the slot of
// every name use was resolved ahead of time, so access is an array
// index, not a map lookup. Frames are recycled through a sync.Pool;
// freeFrame zeroes the slot array, so a pooled frame's backing array is
// all-zero up to its capacity (frames abandoned by a panic unwind are
// simply collected by the GC).
type Frame struct {
	method *types.Method
	slots  *methodSlots
	this   *Object
	vars   []Value
	ctx    *Ctx
	// ret receives the return value in compiled execution (the walker
	// threads a *returnValue instead).
	ret Value
}

// Method reports the frame's executing method (runtime diagnostics).
func (fr *Frame) Method() *types.Method { return fr.method }

var framePool = sync.Pool{New: func() any { return &Frame{} }}

// newFrame acquires a pooled frame with n zeroed variable slots.
func newFrame(n int) *Frame {
	fr := framePool.Get().(*Frame)
	if cap(fr.vars) >= n {
		// The pool invariant guarantees every slot up to cap is zero.
		fr.vars = fr.vars[:n]
	} else {
		fr.vars = make([]Value, n)
	}
	return fr
}

// freeFrame zeroes and recycles a frame. Callers release frames only on
// the normal (non-panicking) paths; a panic abandons the frame to the
// garbage collector, which keeps the pool invariant (all slots zero)
// trivially true.
func freeFrame(fr *Frame) {
	clear(fr.vars)
	fr.method = nil
	fr.slots = nil
	fr.this = nil
	fr.ctx = nil
	fr.ret = Value{}
	framePool.Put(fr)
}

// ReleaseFrame recycles an iteration frame obtained from NewIterFrame
// once no more iterations will run in it.
func (ip *Interp) ReleaseFrame(fr *Frame) { freeFrame(fr) }

// returnValue signals a return through the statement walkers.
type returnValue struct {
	v Value
}

// Run executes the program's main function serially under ctx.
func (ip *Interp) Run(ctx *Ctx) error {
	if ip.Prog.Main == nil {
		return rtErrf("program has no main function")
	}
	_, err := ip.Call(ctx, ip.Prog.Main, nil, nil)
	return err
}

// Call executes method m with the given receiver and arguments.
func (ip *Interp) Call(ctx *Ctx, m *types.Method, this *Object, args []Value) (Value, error) {
	if m.Def == nil {
		return Value{}, rtErrf("%s has no definition", m.FullName())
	}
	maxDepth := ctx.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	if ctx.Depth >= maxDepth {
		return Value{}, rtErrf("recursion depth limit of %d activations exceeded calling %s", maxDepth, m.FullName())
	}
	ctx.Depth++
	defer func() { ctx.Depth-- }()
	ms := ip.res.methods[m.ID]
	fr := newFrame(ms.n)
	fr.method, fr.slots, fr.this, fr.ctx = m, ms, this, ctx
	for i := range m.Params {
		if i < len(args) {
			fr.vars[i] = coerceKind(ms.paramCo[i], args[i])
		}
	}
	ctx.charge(CostCall)

	var out Value
	if ip.engine == EngineWalk {
		if ctx.Mon != nil {
			freeFrame(fr)
			return Value{}, rtErrf(errWalkerMon)
		}
		ret, err := ip.execStmt(fr, m.Def.Body)
		if err != nil {
			freeFrame(fr)
			return Value{}, err
		}
		if ret != nil {
			out = ret.v
		}
	} else {
		// A non-nil monitor selects the monitored compiled bodies; the
		// unmonitored table is untouched, so steady-state execution
		// stays branch-free inside the closures.
		compiled := ip.res.compiled
		if ctx.Mon != nil {
			compiled, _ = ip.res.monTables()
		}
		fl, err := compiled[m.ID].body(fr)
		if err != nil {
			freeFrame(fr)
			return Value{}, err
		}
		if fl == flowReturn {
			out = fr.ret
		}
	}
	freeFrame(fr)
	return out, nil
}

// execStmt executes a statement; a non-nil *returnValue unwinds a
// return. (Tree-walking engine.)
func (ip *Interp) execStmt(fr *Frame, s ast.Stmt) (*returnValue, error) {
	fr.ctx.charge(CostStmt)
	if err := fr.ctx.step(); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case *ast.Block:
		for _, sub := range st.Stmts {
			ret, err := ip.execStmt(fr, sub)
			if ret != nil || err != nil {
				return ret, err
			}
		}
		return nil, nil

	case *ast.DeclStmt:
		fr.vars[st.Slot] = ip.zeroValue(fr.slots.types[st.Slot])
		if st.Init != nil {
			v, err := ip.eval(fr, st.Init)
			if err != nil {
				return nil, err
			}
			fr.vars[st.Slot] = coerceKind(st.Coerce, v)
		}
		return nil, nil

	case *ast.ExprStmt:
		_, err := ip.eval(fr, st.X)
		return nil, err

	case *ast.IfStmt:
		c, err := ip.eval(fr, st.Cond)
		if err != nil {
			return nil, err
		}
		b, err := truthy(c)
		if err != nil {
			return nil, err
		}
		if b {
			return ip.execStmt(fr, st.Then)
		}
		if st.Else != nil {
			return ip.execStmt(fr, st.Else)
		}
		return nil, nil

	case *ast.ForStmt:
		return ip.execFor(fr, st)

	case *ast.WhileStmt:
		for {
			c, err := ip.eval(fr, st.Cond)
			if err != nil {
				return nil, err
			}
			b, err := truthy(c)
			if err != nil {
				return nil, err
			}
			if !b {
				return nil, nil
			}
			ret, err := ip.execStmt(fr, st.Body)
			if ret != nil || err != nil {
				return ret, err
			}
		}

	case *ast.ReturnStmt:
		if st.X == nil {
			return &returnValue{}, nil
		}
		v, err := ip.eval(fr, st.X)
		if err != nil {
			return nil, err
		}
		return &returnValue{v: coerceKind(fr.slots.retCo, v)}, nil
	}
	return nil, rtErrf("unsupported statement at %s", s.Pos())
}

// execFor runs a for loop, offering counted loops to the context's
// ForLoop dispatcher (parallel loop execution). After a handled loop the
// variable holds what the serial loop leaves in it (rtkit.LoopExit).
func (ip *Interp) execFor(fr *Frame, st *ast.ForStmt) (*returnValue, error) {
	if st.Init != nil {
		if ret, err := ip.execStmt(fr, st.Init); ret != nil || err != nil {
			return ret, err
		}
	}
	if fr.ctx.ForLoop != nil {
		if slot, to, step, ok := ip.countedLoop(fr, st); ok {
			from := fr.vars[slot].Int()
			handled, err := fr.ctx.ForLoop(st, fr, from, to, step)
			if err != nil {
				return nil, err
			}
			if handled {
				fr.vars[slot] = IntValue(rtkit.LoopExit(from, to, step))
				return nil, nil
			}
		}
	}
	for {
		if st.Cond != nil {
			c, err := ip.eval(fr, st.Cond)
			if err != nil {
				return nil, err
			}
			b, err := truthy(c)
			if err != nil {
				return nil, err
			}
			if !b {
				return nil, nil
			}
		}
		ret, err := ip.execStmt(fr, st.Body)
		if ret != nil || err != nil {
			return ret, err
		}
		if st.Post != nil {
			if ret, err := ip.execStmt(fr, st.Post); ret != nil || err != nil {
				return ret, err
			}
		}
	}
}

// countedLoop is the walker's offer test: st has the counted header
// (ast.MatchCountedLoop) with a pure bound — it is evaluated here, and
// again per iteration by the serial loop when the dispatcher declines —
// and, at run time, the loop variable holds an int and the bound
// evaluates without error to an int. It returns the variable's frame
// slot. The compiled engine applies the same test (compileFor).
func (ip *Interp) countedLoop(fr *Frame, st *ast.ForStmt) (slot int, to, step int64, ok bool) {
	h, ok := ast.MatchCountedLoop(st)
	if !ok || !ast.Pure(h.Bound) || fr.vars[h.Var.Slot].kind != KInt {
		return 0, 0, 0, false
	}
	bv, err := ip.eval(fr, h.Bound)
	if err != nil || bv.kind != KInt {
		return 0, 0, 0, false
	}
	return int(h.Var.Slot), bv.Int(), h.Step, true
}

// NewIterFrame returns a frame for executing parallel-loop iterations
// of fr's loop under ctx: the parent's slot array is copied once.
// Iterations in the dialect's parallel loops write only their own
// locals (exactly as the serial loop reuses one frame across
// iterations), so a single iteration frame can serve every iteration a
// worker executes — the per-iteration cost is one slot store, not a
// map rebuild. Release with ReleaseFrame when the worker is done.
func (ip *Interp) NewIterFrame(ctx *Ctx, fr *Frame) *Frame {
	sub := newFrame(len(fr.vars))
	sub.method, sub.slots, sub.this, sub.ctx = fr.method, fr.slots, fr.this, ctx
	copy(sub.vars, fr.vars)
	return sub
}

// RunLoopIteration executes one iteration of the body of a counted loop
// the engine offered, in an iteration frame obtained from NewIterFrame,
// with the loop variable bound to i.
func (ip *Interp) RunLoopIteration(sub *Frame, st *ast.ForStmt, i int64) error {
	if ip.engine == EngineWalk && sub.ctx.Mon != nil {
		return rtErrf(errWalkerMon)
	}
	loops := ip.res.loopBodies
	if sub.ctx.Mon != nil {
		_, loops = ip.res.monTables()
	}
	lb, ok := loops[st]
	if !ok {
		return rtErrf("parallel loop at %s is not a counted loop", st.Pos())
	}
	sub.vars[lb.slot] = IntValue(i)
	returned := false
	if ip.engine == EngineWalk {
		ret, err := ip.execStmt(sub, st.Body)
		if err != nil {
			return err
		}
		returned = ret != nil
	} else {
		fl, err := lb.body(sub)
		if err != nil {
			return err
		}
		returned = fl == flowReturn
	}
	if returned {
		return rtErrf("return inside a parallel loop")
	}
	return nil
}

// callBuiltin dispatches a math or print builtin on evaluated
// arguments. The caller has already charged CostBuiltin.
func callBuiltin(ip *Interp, name string, x *ast.CallExpr, args []Value) (Value, error) {
	f := func(i int) float64 {
		v, _ := asFloat(args[i])
		return v
	}
	switch name {
	case "sqrt":
		return FloatValue(math.Sqrt(f(0))), nil
	case "fabs":
		return FloatValue(math.Abs(f(0))), nil
	case "exp":
		return FloatValue(math.Exp(f(0))), nil
	case "log":
		return FloatValue(math.Log(f(0))), nil
	case "floor":
		return FloatValue(math.Floor(f(0))), nil
	case "sin":
		return FloatValue(math.Sin(f(0))), nil
	case "cos":
		return FloatValue(math.Cos(f(0))), nil
	case "pow":
		return FloatValue(math.Pow(f(0), f(1))), nil
	case "print":
		if ip.Out != nil {
			for i, a := range args {
				if i > 0 {
					io.WriteString(ip.Out, " ")
				}
				printValue(ip.Out, a)
			}
			io.WriteString(ip.Out, "\n")
		}
		return Value{}, nil
	}
	return Value{}, rtErrf(errUnknownBuiltin, name)
}

func printValue(w io.Writer, v Value) {
	switch v.kind {
	case KInt:
		io.WriteString(w, formatInt(v.Int()))
	case KFloat:
		io.WriteString(w, formatFloat(v.Float()))
	case KBool:
		if v.num != 0 {
			io.WriteString(w, "TRUE")
		} else {
			io.WriteString(w, "FALSE")
		}
	case KString:
		io.WriteString(w, v.Str())
	case KNull:
		io.WriteString(w, "NULL")
	case KObject:
		io.WriteString(w, "<"+v.Object().Class.Name+">")
	default:
		io.WriteString(w, "?")
	}
}
