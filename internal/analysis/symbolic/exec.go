package symbolic

import (
	"fmt"
	"slices"
	"strings"

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
// invocations in one order: the new instance-variable values (sorted by
// their declaring-class-qualified field names) and the multiset of
// directly invoked operations.
type Result struct {
	IVars   []IVar
	Invoked Multiset

	tab *Table // the table the execution built its expressions in
}

// IVar is one instance variable of an execution's state: its key, the
// declaring class's name and the field's joined by a dot, and its value.
type IVar struct {
	Key string
	V   Expr
}

// IVar returns the value of the instance variable with the given key,
// or nil if the execution has no such variable.
func (r *Result) IVar(key string) Expr {
	if i := ivarIndex(r.IVars, key); i >= 0 {
		return r.IVars[i].V
	}
	return nil
}

// Canonical rewrites the result in place to its simplified, canonical
// form, in the table of the execution that produced it, and returns it.
func (r *Result) Canonical() *Result {
	for i := range r.IVars {
		r.IVars[i].V = r.tab.simplify(r.IVars[i].V)
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
func ExecutePair(mA, mB *types.Method, tagA, tagB string, env *Env) (Result, error) {
	// A's run from the initial state is the same whatever follows it:
	// take it from the memo and execute only B on a copy of its state.
	first := env.firstRun(mA, tagA)
	if first.err != nil {
		return Result{}, first.err
	}
	ex := &executor{env: env, tab: env.cache.tab, ivars: slices.Clone(first.ivars), unrolled: first.unrolled}
	invoked := first.invoked[:len(first.invoked):len(first.invoked)] // B's appends copy
	if err := ex.runMethod(mB, tagB, &invoked); err != nil {
		return Result{}, err
	}
	return Result{IVars: ex.ivars, Invoked: invoked, tab: ex.tab}, nil
}

// ExecuteOne symbolically executes a single invocation (used by
// reports and the Table 1 demonstration).
func ExecuteOne(m *types.Method, tag string, env *Env) (Result, error) {
	first := env.firstRun(m, tag)
	if first.err != nil {
		return Result{}, first.err
	}
	return Result{IVars: slices.Clone(first.ivars), Invoked: first.invoked[:len(first.invoked):len(first.invoked)], tab: env.cache.tab}, nil
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
	tab   *Table // env.cache.tab
	ivars []IVar // sorted by key

	// Per-invocation frame.
	m       *types.Method
	tag     string
	locals  []binding
	params  []Expr // in m.Params order
	guard   []Expr // conjunction stack
	invoked *Multiset
	retSeen bool

	// Unrolling (unrollLoop): how deep in unrolled loops execution is,
	// and how many statements they have executed in this order of the
	// pair, the first invocation's included.
	unrolling int
	unrolled  int
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
	// is shared between the two invocations, so only add unseen fields.
	ex.ivars = withIVars(ex.ivars, ivars)
	return ex.stmt(m.Def.Body)
}

// withIVars adds to state, which the executor owns, every instance
// variable of init it lacks, at its initial value; both are sorted by
// key.
func withIVars(state, init []IVar) []IVar {
	if len(state) == 0 {
		return slices.Clone(init)
	}
	for _, iv := range init {
		if i, found := slices.BinarySearchFunc(state, iv.Key, byKey); !found {
			state = slices.Insert(state, i, iv)
		}
	}
	return state
}

// byKey orders a state's instance variables.
func byKey(iv IVar, key string) int { return strings.Compare(iv.Key, key) }

// ivarIndex is the position of key in ivs, or -1.
func ivarIndex(ivs []IVar, key string) int {
	for i := range ivs {
		if ivs[i].Key == key {
			return i
		}
	}
	return -1
}

// ivar is the state of the receiver's field class.name, which the state
// gains at its initial value iv:class.name if it lacks it; the key is
// only built then. The pointer is good until the state next grows.
func (ex *executor) ivar(class, name string) *IVar {
	n := len(class)
	for i := range ex.ivars {
		if k := ex.ivars[i].Key; len(k) == n+1+len(name) && k[n] == '.' && k[:n] == class && k[n+1:] == name {
			return &ex.ivars[i]
		}
	}
	key := class + "." + name
	i, _ := slices.BinarySearchFunc(ex.ivars, key, byKey)
	ex.ivars = slices.Insert(ex.ivars, i, IVar{key, Var{Name: "iv:" + key}})
	return &ex.ivars[i]
}

func (ex *executor) curGuard() Expr {
	if len(ex.guard) == 0 {
		return Bool{V: true}
	}
	return ex.tab.simplify(ex.tab.mkNary(OpAnd, ex.guard))
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
	ivars  []IVar
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
		ivars:  slices.Clone(ex.ivars),
		locals: slices.Clone(ex.locals),
		params: slices.Clone(ex.params),
	}
}

// restore installs s, which the executor owns from here on.
func (ex *executor) restore(s stateSnap) {
	ex.ivars, ex.locals, ex.params = s.ivars, s.locals, s.params
}

func (ex *executor) stmt(s ast.Stmt) error {
	if ex.retSeen {
		return ex.failf("statement after return")
	}
	if ex.unrolling > 0 {
		if ex.unrolled++; ex.unrolled > unrollBudget {
			return ex.failf("loop too large to unroll (over %d statements)", unrollBudget)
		}
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
	thenState.ivars = ex.mergeIVars(c, thenState.ivars, elseState.ivars)
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

// mergeIVars merges the else arm's instance variables f into the then
// arm's t, which nothing else holds; both are sorted by key.
func (ex *executor) mergeIVars(c Expr, t, f []IVar) []IVar {
	for _, fv := range f {
		if i, found := slices.BinarySearchFunc(t, fv.Key, byKey); found {
			t[i].V = ex.merge(c, t[i].V, fv.V)
		} else {
			t = slices.Insert(t, i, fv)
		}
	}
	return t
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
