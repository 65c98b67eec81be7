package symbolic

import (
	"fmt"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
)

// UnanalyzableError reports why a method could not be symbolically
// executed.
type UnanalyzableError struct {
	Method *types.Method
	Reason string
}

func (e *UnanalyzableError) Error() string {
	return e.Method.FullName() + ": " + e.Reason
}

// Result is the outcome of symbolically executing a pair of
// invocations in one order: the new instance-variable values (keyed by
// declaring-class-qualified field name) and the multiset of directly
// invoked operations.
type Result struct {
	IVars   map[string]Expr
	Invoked Multiset
}

// Canonical returns the simplified, canonical form of the result.
func (r *Result) Canonical() *Result {
	out := &Result{IVars: make(map[string]Expr, len(r.IVars))}
	for k, v := range r.IVars {
		out.IVars[k] = Simplify(v)
	}
	out.Invoked = SimplifyMultiset(r.Invoked)
	return out
}

// ExecutePair symbolically executes invocation A of mA (parameters
// tagged "1") followed by invocation B of mB (tagged "2") on a shared
// receiver, per §4.8.1. Call ExecutePair(mB, mA, "2", "1", env) for the
// opposite order; extent constants generated for auxiliary operations
// are keyed by (invocation tag, call site, occurrence) so both orders
// agree on them.
func ExecutePair(mA, mB *types.Method, tagA, tagB string, env *Env) (*Result, error) {
	// A's run from the initial state is the same whatever follows it:
	// take it from the memo and execute only B on a copy of its state.
	first := env.firstRun(mA, tagA)
	if first.err != nil {
		return nil, first.err
	}
	ex := &executor{env: env, ivars: cloneMap(first.ivars)}
	invoked := append(Multiset(nil), first.invoked...)
	if err := ex.runMethod(mB, tagB, &invoked); err != nil {
		return nil, err
	}
	return &Result{IVars: ex.ivars, Invoked: invoked}, nil
}

// ExecuteOne symbolically executes a single invocation (used by
// reports and the Table 1 demonstration).
func ExecuteOne(m *types.Method, tag string, env *Env) (*Result, error) {
	first := env.firstRun(m, tag)
	if first.err != nil {
		return nil, first.err
	}
	return &Result{IVars: cloneMap(first.ivars), Invoked: append(Multiset(nil), first.invoked...)}, nil
}

// Analyzable reports whether the method can be symbolically executed in
// the environment, with the reason when it cannot.
func Analyzable(m *types.Method, env *Env) error {
	return env.firstRun(m, "1").err
}

// ---------------------------------------------------------------------
// Executor

// executor holds the shared instance-variable state across the two
// invocations plus the per-invocation frame.
type executor struct {
	env   *Env
	ivars map[string]Expr // "class.field" → current value

	// Per-invocation frame.
	m       *types.Method
	tag     string
	locals  map[string]Expr
	params  map[string]Expr
	guard   []Expr // conjunction stack
	invoked *Multiset
	retSeen bool
}

func (ex *executor) failf(format string, args ...any) error {
	return &UnanalyzableError{Method: ex.m, Reason: fmt.Sprintf(format, args...)}
}

func (ex *executor) runMethod(m *types.Method, tag string, invoked *Multiset) error {
	if m.Def == nil {
		return &UnanalyzableError{Method: m, Reason: "no definition"}
	}
	ex.m = m
	ex.tag = tag
	ex.locals = make(map[string]Expr)
	ex.params = make(map[string]Expr)
	ex.guard = nil
	ex.invoked = invoked
	ex.retSeen = false

	ex.env.cache.execs.Add(1)
	params, ivars := ex.env.cache.initialOf(m, tag)
	for i, v := range params {
		ex.params[m.Params[i].Name] = v
	}
	// Instance variables start at their pre-execution values; the state
	// is shared between the two invocations, so only initialize unseen
	// fields.
	for _, iv := range ivars {
		if _, ok := ex.ivars[iv.key]; !ok {
			ex.ivars[iv.key] = iv.init
		}
	}
	return ex.stmt(m.Def.Body)
}

func (ex *executor) curGuard() Expr {
	if len(ex.guard) == 0 {
		return Bool{V: true}
	}
	args := make([]Expr, len(ex.guard))
	copy(args, ex.guard)
	return Simplify(mkNary(OpAnd, args))
}

// stateSnap is the mutable value state (ivars + locals + params).
type stateSnap struct {
	ivars, locals, params map[string]Expr
}

// state returns the executor's current maps themselves: a snapshot only
// for a caller that installs other maps before anything executes.
func (ex *executor) state() stateSnap {
	return stateSnap{ivars: ex.ivars, locals: ex.locals, params: ex.params}
}

// snap copies the state, for a caller that keeps executing on it.
func (ex *executor) snap() stateSnap {
	return stateSnap{
		ivars:  cloneMap(ex.ivars),
		locals: cloneMap(ex.locals),
		params: cloneMap(ex.params),
	}
}

// restore installs s, which the executor owns from here on.
func (ex *executor) restore(s stateSnap) {
	ex.ivars, ex.locals, ex.params = s.ivars, s.locals, s.params
}

func cloneMap(m map[string]Expr) map[string]Expr {
	out := make(map[string]Expr, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (ex *executor) stmt(s ast.Stmt) error {
	if ex.retSeen {
		return ex.failf("statement after return")
	}
	switch st := s.(type) {
	case *ast.Block:
		for _, sub := range st.Stmts {
			if err := ex.stmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *ast.DeclStmt:
		ex.locals[st.Name] = Var{Name: ex.tag + ":undef:" + st.Name}
		if st.Init != nil {
			v, err := ex.eval(st.Init)
			if err != nil {
				return err
			}
			ex.locals[st.Name] = v
		}
		return nil
	case *ast.ExprStmt:
		_, err := ex.eval(st.X)
		return err
	case *ast.IfStmt:
		return ex.ifStmt(st)
	case *ast.ForStmt:
		return ex.forStmt(st)
	case *ast.WhileStmt:
		return ex.failf("while loops are not symbolically executable")
	case *ast.ReturnStmt:
		if st.X != nil {
			if _, err := ex.eval(st.X); err != nil {
				return err
			}
		}
		if len(ex.guard) > 0 {
			return ex.failf("conditional return")
		}
		ex.retSeen = true
		return nil
	}
	return ex.failf("unsupported statement")
}

func (ex *executor) ifStmt(st *ast.IfStmt) error {
	c, err := ex.eval(st.Cond)
	if err != nil {
		return err
	}
	c = Simplify(c)
	if b, ok := c.(Bool); ok {
		// Statically decided branch.
		if b.V {
			return ex.stmt(st.Then)
		}
		if st.Else != nil {
			return ex.stmt(st.Else)
		}
		return nil
	}

	pre := ex.snap()

	ex.guard = append(ex.guard, c)
	if err := ex.stmt(st.Then); err != nil {
		return err
	}
	thenState := ex.state() // restore(pre) below takes these maps out of use
	thenRet := ex.retSeen
	ex.guard = ex.guard[:len(ex.guard)-1]
	if thenRet {
		return ex.failf("conditional return")
	}

	ex.restore(pre)
	notC := Simplify(mkNot(c))
	ex.guard = append(ex.guard, notC)
	if st.Else != nil {
		if err := ex.stmt(st.Else); err != nil {
			return err
		}
		if ex.retSeen {
			return ex.failf("conditional return")
		}
	}
	elseState := ex.state()
	ex.guard = ex.guard[:len(ex.guard)-1]

	// Merge into fresh maps: differing bindings become conditional
	// expressions.
	ex.ivars = mergeState(c, thenState.ivars, elseState.ivars)
	ex.locals = mergeState(c, thenState.locals, elseState.locals)
	ex.params = mergeState(c, thenState.params, elseState.params)
	return nil
}

func mergeState(c Expr, t, f map[string]Expr) map[string]Expr {
	out := make(map[string]Expr, len(t))
	for k, tv := range t {
		fv, ok := f[k]
		if !ok || tv.Key() == fv.Key() {
			out[k] = tv
			continue
		}
		out[k] = Simplify(mkCond(c, tv, fv))
	}
	for k, fv := range f {
		if _, ok := t[k]; !ok {
			out[k] = fv
		}
	}
	return out
}

// evalConstInt evaluates an expression to a compile-time integer if
// possible (used for loop bounds during unrolling).
func (ex *executor) evalConstInt(e ast.Expr) (int64, bool) {
	v, err := ex.eval(e)
	if err != nil {
		return 0, false
	}
	n, ok := Simplify(v).(Num)
	if !ok || !n.IsInt {
		return 0, false
	}
	return int64(n.V), true
}
