package interp

import (
	"io"
	"math"
	"sync/atomic"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
	"commute/rtkit"
)

// Engine selects the execution strategy for method bodies.
type Engine uint8

const (
	// EngineCompiled executes closure-compiled bodies (the default):
	// each method is lowered once per program to a tree of thunks, so
	// steady-state execution performs no AST type-switches. A body run
	// under an effect monitor (Ctx.Mon) runs on the tree walker.
	EngineCompiled Engine = iota
	// EngineWalk executes the tree-walking evaluator: the semantic
	// baseline of the differential tests, and the engine of every
	// monitored body. The parallel runtime refuses an interpreter that
	// walks everything.
	EngineWalk
)

// Interp holds the immutable program and the global object store.
type Interp struct {
	Prog    *types.Program
	code    *Code
	engine  Engine
	globals []*Object // declaration order, indexed by SymGlobal Ident.Slot
	Globals map[string]*Object
	Out     io.Writer

	objectIDs atomic.Int64 // the last Object.ID handed out
}

// New allocates an interpreter of a program's code with
// default-initialized globals, executing closure-compiled bodies.
func New(code *Code, out io.Writer) *Interp {
	return NewEngine(code, out, EngineCompiled)
}

// NewEngine allocates an interpreter using the given execution engine.
func NewEngine(code *Code, out io.Writer, eng Engine) *Interp {
	ip := &Interp{
		Prog:    code.prog,
		code:    code,
		engine:  eng,
		Globals: make(map[string]*Object),
		Out:     out,
	}
	for _, g := range code.prog.GlobalSeq {
		o := ip.NewObject(g.Class)
		ip.globals = append(ip.globals, o)
		ip.Globals[g.Name] = o
	}
	return ip
}

// Engine reports the interpreter's execution engine.
func (ip *Interp) Engine() Engine { return ip.engine }

// Ctx carries the execution strategy: cost accounting and the call /
// loop dispatchers that the parallel executors override. A zero-value
// strategy executes serially and, on the tree walker, charges into Cost.
type Ctx struct {
	IP *Interp

	// Charge accounts abstract cost units (nil: accumulate into Cost).
	// Only the tree walker charges units — the tracer runs on it;
	// compiled code never calls Charge.
	Charge func(units int64)
	// Invoke dispatches a non-builtin call after receiver and argument
	// evaluation (nil: execute inline serially). args belongs to the
	// caller and is recycled as soon as the hook returns, and an array
	// argument may be storage the caller's frame owns and rewrites: a
	// hook that hands the arguments to something outliving the call (a
	// spawned task) copies the slice and snapshots each array's elements
	// first.
	Invoke func(site *types.CallSite, recv *Object, args []Value) (Value, error)
	// ForLoop may take over a for loop given its evaluated header
	// (nil or returning handled=false: execute serially). The body
	// callback runs one iteration.
	ForLoop func(fs *ast.ForStmt, fr *Frame, from, to, step int64) (handled bool, err error)

	// Mon, when non-nil, observes every object-field and array-element
	// access and may redirect loads to buffered state (speculative
	// execution). A body entered under a monitor (Call,
	// RunLoopIteration) runs on the tree walker, whatever the engine, so
	// the compiled closures carry no monitor checks at all.
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

	// Cost is the default cost accumulator of the tree walker; compiled
	// code leaves it zero.
	Cost int64

	steps int64
	// poll is the step at which tick next takes its slow path: where
	// MaxSteps or the Interrupt poll can fire; zero makes the first
	// statement compute it.
	poll int64

	// frames is the activation stack: frames[:sp] are live, strictly
	// LIFO, and a frame above sp has all-zero slots. A Ctx is
	// goroutine-local, so no locking is needed.
	frames []*Frame
	sp     int
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
// as NewCtx would have left it: the step and cost counters restart and
// the stack is emptied (frames a recovered panic abandoned are zeroed),
// while the hooks and the stack's frames stay.
func (c *Ctx) Recycle(depth int) {
	for c.sp > 0 {
		c.popFrame()
	}
	c.Depth, c.Cost, c.steps, c.poll = depth, 0, 0, 0
}

// tick is every statement's prologue in both engines: it counts the
// step and takes the slow path, which throws its failure, only when the
// count reaches poll. Statements are counted one at a time, never
// coalesced, so MaxSteps and Interrupt behave alike under both engines.
func (c *Ctx) tick() {
	c.steps++
	if c.steps >= c.poll {
		c.tickSlow()
	}
}

// tickSlow enforces the statement budget, polls the interrupt hook, and
// sets the next poll. It stays out of line so that tick inlines into
// every statement.
//
//go:noinline
func (c *Ctx) tickSlow() {
	c.poll = math.MaxInt64
	if c.MaxSteps > 0 {
		c.poll = min(c.poll, max(c.MaxSteps, c.steps)+1)
		if c.steps > c.MaxSteps {
			throw(rtErrf("step budget of %d statements exhausted", c.MaxSteps))
		}
	}
	if c.Interrupt != nil {
		c.poll = min(c.poll, (c.steps/InterruptStride+1)*InterruptStride)
		if c.steps%InterruptStride == 0 {
			if err := c.Interrupt(); err != nil {
				throw(err)
			}
		}
	}
}

// catch is deferred by the two entries into a method body, Interp.Call
// and RunLoopIteration: a thrown failure pops the context's stack back
// to the entry's height sp, restores the entry's depth and becomes the
// entry's error. Any other panic goes on unwinding, frames and all.
func (c *Ctx) catch(sp, depth int, err *error) {
	if r := recover(); r != nil {
		t, ok := r.(thrown)
		if !ok {
			panic(r)
		}
		for c.sp > sp {
			c.popFrame()
		}
		c.Depth, *err = depth, t.err
	}
}

// charge accounts the tree walker's units: to the Charge hook, if any,
// else into Cost.
func (c *Ctx) charge(units int64) {
	if c.Charge != nil {
		c.Charge(units)
		return
	}
	c.Cost += units
}

// Frame is one activation record. Variables live in a flat slot array
// (parameters first, then locals in declaration order) — the slot of
// every name use was resolved ahead of time, so access is an array
// index, not a map lookup. A frame lives on its context's stack and is
// taken again by the next activation at its height; popFrame zeroes the
// slot array, so a pushed frame is all-zero up to its capacity.
type Frame struct {
	method *types.Method
	slots  *methodSlots
	this   *Object
	vars   []Value
	ctx    *Ctx
	height int // index on ctx's stack
	// ret receives the return value in compiled execution (the walker
	// threads a *returnValue instead).
	ret Value
	// arena and arrays are the storage and headers of the method's
	// frame-owned local arrays (ownedDecl), which only the
	// compiled body uses. They are sized before the activation's body
	// runs (fitArrays) and never grow during it, so an array's address
	// is fixed until the frame is popped.
	arena  []Value
	arrays []Array
}

// Method reports the frame's executing method (runtime diagnostics).
func (fr *Frame) Method() *types.Method { return fr.method }

// pushFrame takes the frame above the stack's top, with n zero slots.
// A frame keeps its slot array across pushes, so a context's calls
// allocate only while its stack or a frame's slots grow.
func (c *Ctx) pushFrame(n int) *Frame {
	if c.sp == len(c.frames) {
		c.frames = append(c.frames, &Frame{ctx: c, height: c.sp})
	}
	fr := c.frames[c.sp]
	c.sp++
	if cap(fr.vars) < n {
		fr.vars = make([]Value, n)
	}
	fr.vars = fr.vars[:n]
	return fr
}

// fitArrays gives the frame room for ms's frame-owned arrays before an
// activation of it runs (enter, NewIterFrame), so the arena never moves
// under a bound array. The arena and the headers keep their full length,
// which the arrays of every method the frame serves fit in.
func (fr *Frame) fitArrays(ms *methodSlots) {
	if len(fr.arena) < ms.arena {
		fr.arena = make([]Value, ms.arena)
	}
	if len(fr.arrays) < ms.arrays {
		fr.arrays = make([]Array, ms.arrays)
	}
}

// popFrame zeroes the top frame and takes it off the stack.
func (c *Ctx) popFrame() {
	c.sp--
	fr := c.frames[c.sp]
	clear(fr.vars)
	fr.this, fr.ret = nil, Value{}
}

// ReleaseFrame pops an iteration frame obtained from NewIterFrame, and
// any frame a recovered panic abandoned above it, off its context's
// stack: claimants release it last, after every iteration.
func (ip *Interp) ReleaseFrame(fr *Frame) {
	for c := fr.ctx; c.sp > fr.height; {
		c.popFrame()
	}
}

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

// Call executes method m with the given receiver and arguments, on the
// tree walker where ip.walks(ctx). A class method needs a receiver: a compiled body never tests this for
// nil, as no call site passes one (a NULL receiver fails at the site,
// an implicit one is the caller's own). It needs one argument per
// parameter, so no parameter slot holds a kind other than its type.
func (ip *Interp) Call(ctx *Ctx, m *types.Method, this *Object, args []Value) (v Value, err error) {
	if m.Def == nil {
		return Value{}, rtErrf("%s has no definition", m.FullName())
	}
	if m.Class != nil && this == nil {
		return Value{}, rtErrf(errCallNoRecv, m.FullName())
	}
	if len(args) != len(m.Params) {
		return Value{}, rtErrf(errCallArity, m.FullName(), len(m.Params), len(args))
	}
	ms := ip.code.methods[m.ID]
	defer ctx.catch(ctx.sp, ctx.Depth, &err)
	fr := ctx.pushFrame(ms.n)
	for i, a := range args {
		fr.vars[i] = coerceKind(ms.paramCo[i], a)
	}
	body := walkBody
	if !ip.walks(ctx) {
		body = ip.code.compiled[m.ID].body
	}
	return ctx.enter(fr, m, ms, this, body), nil
}

// walks reports whether a body entered under ctx runs on the tree
// walker: always on EngineWalk, and under a monitor on either engine.
func (ip *Interp) walks(ctx *Ctx) bool { return ip.engine == EngineWalk || ctx.Mon != nil }

// enter runs an activation whose frame is pushed with its arguments in
// place: the depth guard, the body, and the pop. Only a void
// body can fall off its end (the checker rejects any other); it yields
// NULL. A failure throws past it: the catching entry pops the frame.
func (c *Ctx) enter(fr *Frame, m *types.Method, ms *methodSlots, this *Object, body stmtFn) Value {
	maxDepth := c.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	if c.Depth >= maxDepth {
		throw(rtErrf("recursion depth limit of %d activations exceeded calling %s", maxDepth, m.FullName()))
	}
	c.Depth++
	fr.method, fr.slots, fr.this = m, ms, this
	fr.fitArrays(ms)
	fl := body(fr)
	c.Depth--
	var out Value
	if fl == flowReturn {
		out = fr.ret
	}
	c.popFrame()
	return out
}

// walkBody runs fr's method on the tree walker, charging CostCall, and
// throws its error as a compiled body would.
func walkBody(fr *Frame) flow {
	fr.ctx.charge(CostCall)
	ret, err := fr.ctx.IP.execStmt(fr, fr.method.Def.Body)
	if err != nil {
		throw(err)
	}
	if ret == nil {
		return flowNext
	}
	fr.ret = ret.v
	return flowReturn
}

// execStmt executes a statement; a non-nil *returnValue unwinds a
// return. (Tree-walking engine.)
func (ip *Interp) execStmt(fr *Frame, s ast.Stmt) (*returnValue, error) {
	fr.ctx.charge(CostStmt)
	fr.ctx.tick()
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
		fr.vars[st.Slot] = ip.zeroValue(fr.method.Frame[st.Slot].Type)
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
// slot. The compiled engine decides the same from the checked types
// (compileFor).
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
// map rebuild. The frame is pushed on the claimant's stack, LIFO:
// release it with ReleaseFrame when the claimant is done.
func (ip *Interp) NewIterFrame(ctx *Ctx, fr *Frame) *Frame {
	sub := ctx.pushFrame(len(fr.vars))
	sub.method, sub.slots, sub.this = fr.method, fr.slots, fr.this
	sub.fitArrays(fr.slots)
	copy(sub.vars, fr.vars)
	return sub
}

// RunLoopIteration executes one iteration of the body of a counted loop
// the engine offered, in an iteration frame obtained from NewIterFrame,
// with the loop variable bound to i: on the tree walker where
// ip.walks(sub's context), as Call does.
func (ip *Interp) RunLoopIteration(sub *Frame, st *ast.ForStmt, i int64) (err error) {
	ctx := sub.ctx
	lb, ok := ip.code.loopBodies[st]
	if !ok {
		return rtErrf("parallel loop at %s is not a counted loop", st.Pos())
	}
	sub.vars[lb.slot] = IntValue(i)
	defer ctx.catch(ctx.sp, ctx.Depth, &err)
	var returned bool
	if ip.walks(ctx) {
		ret, err := ip.execStmt(sub, st.Body)
		if err != nil {
			return err
		}
		returned = ret != nil
	} else {
		returned = lb.body(sub) == flowReturn
	}
	if returned {
		return rtErrf("return inside a parallel loop")
	}
	return nil
}

// callBuiltin dispatches a math or print builtin on evaluated
// arguments. The walker charges CostBuiltin before the call.
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
