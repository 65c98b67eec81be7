package symbolic

import (
	"fmt"
	"slices"

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

	tab *Table // the table the execution built its expressions in
}

// Canonical rewrites the result in place to its simplified, canonical
// form, in the table of the execution that produced it, and returns it.
func (r *Result) Canonical() *Result {
	for k, v := range r.IVars {
		r.IVars[k] = r.tab.simplify(v)
	}
	r.Invoked = SimplifyMultiset(r.tab, r.Invoked)
	return r
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
	ex := &executor{env: env, tab: env.cache.tab, ivars: cloneMap(first.ivars)}
	invoked := append(Multiset(nil), first.invoked...)
	if err := ex.runMethod(mB, tagB, &invoked); err != nil {
		return nil, err
	}
	return &Result{IVars: ex.ivars, Invoked: invoked, tab: ex.tab}, nil
}

// ExecuteOne symbolically executes a single invocation (used by
// reports and the Table 1 demonstration).
func ExecuteOne(m *types.Method, tag string, env *Env) (*Result, error) {
	first := env.firstRun(m, tag)
	if first.err != nil {
		return nil, first.err
	}
	return &Result{IVars: cloneMap(first.ivars), Invoked: append(Multiset(nil), first.invoked...), tab: env.cache.tab}, nil
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
	tab   *Table          // env.cache.tab
	ivars map[string]Expr // "class.field" → current value

	// Per-invocation frame.
	m       *types.Method
	tag     string
	locals  []binding
	params  []Expr // in m.Params order
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
	ex.env.cache.execs.Add(1)
	params, ivars := ex.env.cache.initialOf(m, tag)
	ex.m = m
	ex.tag = tag
	ex.locals = nil
	ex.params = slices.Clone(params)
	ex.guard = nil
	ex.invoked = invoked
	ex.retSeen = false

	// Instance variables start at their pre-execution values; the state
	// is shared between the two invocations, so only initialize unseen
	// fields.
	if ex.ivars == nil {
		ex.ivars = make(map[string]Expr, len(ivars))
	}
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
	return ex.tab.simplify(ex.tab.mkNary(OpAnd, args))
}

// binding is a local variable's current value. A frame has a handful
// of locals, so they live in a slice searched by name.
type binding struct {
	name string
	v    Expr
}

// lookup is the named local's value, or nil.
func lookup(locals []binding, name string) Expr {
	for _, b := range locals {
		if b.name == name {
			return b.v
		}
	}
	return nil
}

func (ex *executor) setLocal(name string, v Expr) {
	for i := range ex.locals {
		if ex.locals[i].name == name {
			ex.locals[i].v = v
			return
		}
	}
	ex.locals = append(ex.locals, binding{name, v})
}

// paramIndex is the position of the named parameter in m.Params, or -1.
func (ex *executor) paramIndex(name string) int {
	return slices.IndexFunc(ex.m.Params, func(p *types.Param) bool { return p.Name == name })
}

func (ex *executor) param(name string) Expr {
	if i := ex.paramIndex(name); i >= 0 {
		return ex.params[i]
	}
	return nil
}

func (ex *executor) setParam(name string, v Expr) { ex.params[ex.paramIndex(name)] = v }

// stateSnap is the mutable value state (ivars + locals + params).
type stateSnap struct {
	ivars  map[string]Expr
	locals []binding
	params []Expr
}

// state returns the executor's current state itself: a snapshot only
// for a caller that installs another state before anything executes.
func (ex *executor) state() stateSnap {
	return stateSnap{ivars: ex.ivars, locals: ex.locals, params: ex.params}
}

// snap copies the state, for a caller that keeps executing on it.
func (ex *executor) snap() stateSnap {
	return stateSnap{
		ivars:  cloneMap(ex.ivars),
		locals: slices.Clone(ex.locals),
		params: slices.Clone(ex.params),
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
		ex.setLocal(st.Name, Var{Name: ex.tag + ":undef:" + st.Name})
		if st.Init != nil {
			v, err := ex.eval(st.Init)
			if err != nil {
				return err
			}
			ex.setLocal(st.Name, v)
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
	c = ex.tab.simplify(c)
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
	thenState := ex.state() // restore(pre) below takes this state out of use
	thenRet := ex.retSeen
	ex.guard = ex.guard[:len(ex.guard)-1]
	if thenRet {
		return ex.failf("conditional return")
	}

	ex.restore(pre)
	notC := ex.tab.simplify(ex.tab.mkNot(c))
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

	// Merge into the then arm's state, which nothing else holds any
	// more: differing bindings become conditional expressions.
	for k, tv := range thenState.ivars {
		thenState.ivars[k] = ex.merge(c, tv, elseState.ivars[k])
	}
	for k, fv := range elseState.ivars {
		if _, ok := thenState.ivars[k]; !ok {
			thenState.ivars[k] = fv
		}
	}
	for i, b := range thenState.locals {
		thenState.locals[i].v = ex.merge(c, b.v, lookup(elseState.locals, b.name))
	}
	for _, b := range elseState.locals {
		if lookup(thenState.locals, b.name) == nil {
			thenState.locals = append(thenState.locals, b)
		}
	}
	for i, tv := range thenState.params {
		thenState.params[i] = ex.merge(c, tv, elseState.params[i])
	}
	ex.restore(thenState)
	return nil
}

// merge is what a variable holds after a branch on c that leaves it tv
// when c holds and fv, if the else branch has it, when it does not.
func (ex *executor) merge(c, tv, fv Expr) Expr {
	if fv == nil || tv.Key() == fv.Key() {
		return tv
	}
	return ex.tab.simplify(ex.tab.mkCond(c, tv, fv))
}

// evalConstInt evaluates an expression to a compile-time integer if
// possible (used for loop bounds during unrolling).
func (ex *executor) evalConstInt(e ast.Expr) (int64, bool) {
	v, err := ex.eval(e)
	if err != nil {
		return 0, false
	}
	n, ok := ex.tab.simplify(v).(Num)
	if !ok || !n.IsInt {
		return 0, false
	}
	return int64(n.V), true
}
