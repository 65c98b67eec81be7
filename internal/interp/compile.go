package interp

// Closure compilation: each checked method body is lowered once per
// program to a tree of closures, so steady-state execution never
// type-switches on AST nodes. The lowering happens inside Compile and
// reads the slots the checker assigned.
//
// An expression whose checked type is int, double or boolean is lowered
// to a closure returning the bare payload (int64, float64, bool): the
// type fixes the kind of every value it yields (kindOf), so no kind is
// tested and nothing is boxed until a Value consumer — a store, an
// argument, a return — needs one. Everything else yields a Value.
// Compiled closures return no errors: a failure throws (throw), and only
// Interp.Call and RunLoopIteration catch it (Ctx.catch).
//
// Compiled code charges no cost units: the tree walker, which the
// tracer runs on, is the only engine that does. Every statement opens
// with Ctx.tick, which counts it; statements are never coalesced, so
// MaxSteps budgets and Interrupt polling behave identically under both
// engines.

import (
	"math"
	"slices"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
	"commute/rtkit"
)

// exprFn evaluates an expression to a Value.
type exprFn = func(fr *Frame) Value

// stmtFn executes a statement against a frame; flowReturn means a
// return statement executed and the value is in fr.ret.
type stmtFn func(fr *Frame) flow

// storeFn writes a value to a compiled lvalue.
type storeFn func(fr *Frame, v Value)

type flow uint8

const (
	flowNext flow = iota
	flowReturn
)

// thrown carries a failure of compiled code, or a Ctx.tick stop on
// either engine, to the Ctx.catch of the innermost Interp.Call or
// RunLoopIteration.
type thrown struct{ err error }

func throw(err error) { panic(thrown{err}) }

// must throws a kernel's error.
func must(v Value, err error) Value {
	if err != nil {
		throw(err)
	}
	return v
}

// compiledMethod is the closure-compiled form of one method body.
type compiledMethod struct {
	body stmtFn
}

type compiler struct {
	prog *types.Program
	code *Code
	// loops receives the offered counted loops for RunLoopIteration
	// (Code.loopBodies).
	loops map[*ast.ForStmt]loopBody
	// methods is the table of compiled bodies, indexed by
	// types.Method.ID: a call site enters its callee's body.
	methods []*compiledMethod
	// kinds memoizes kindOf by expression number, plus one (zero: not
	// yet computed).
	kinds []Kind
}

// loopBody is what RunLoopIteration needs of a counted loop the engines
// offer to Ctx.ForLoop: the frame slot of the loop variable and the
// compiled body.
type loopBody struct {
	slot int32
	body stmtFn
}

// compileAll lowers every method body of prog into r. The
// table is made before any body is lowered, so a call site can hold its
// callee's entry.
func compileAll(prog *types.Program, r *Code) ([]*compiledMethod, map[*ast.ForStmt]loopBody) {
	c := &compiler{prog: prog, code: r, loops: make(map[*ast.ForStmt]loopBody),
		methods: make([]*compiledMethod, len(prog.Methods)), kinds: make([]Kind, len(prog.ExprType))}
	for _, m := range prog.Methods {
		if m.Def != nil {
			c.methods[m.ID] = &compiledMethod{}
		}
	}
	for _, m := range prog.Methods {
		if m.Def != nil {
			c.methods[m.ID].body = c.compileStmt(m.Def.Body, r.methods[m.ID])
		}
	}
	return c.methods, c.loops
}

// constant is a closure yielding v.
func constant[T any](v T) func(*Frame) T { return func(*Frame) T { return v } }

// kindOf is the kind of every value e yields where its checked type
// fixes one — KInt, KFloat or KBool — and KNull elsewhere. Every store
// coerces to its checked type, Interp.Call rejects a wrong argument
// count, and the checker rejects a non-void body that can fall off its
// end, so a variable, field, element or call yields its checked type.
// That is every expression but an assignment — its value is the
// right-hand side as computed — and arithmetic over one.
func (c *compiler) kindOf(e ast.Expr) Kind {
	n := int(e.Num())
	if n <= 0 || n >= len(c.kinds) {
		return c.kindOf1(e)
	}
	if c.kinds[n] == 0 {
		c.kinds[n] = c.kindOf1(e) + 1
	}
	return c.kinds[n] - 1
}

func (c *compiler) kindOf1(e ast.Expr) Kind {
	switch x := e.(type) {
	case *ast.Assign:
		return KNull
	case *ast.Unary:
		if x.Op == token.MINUS && c.kindOf(x.X) == KNull {
			return KNull
		}
	case *ast.Binary:
		switch x.Op {
		case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
			if c.kindOf(x.X) == KNull || c.kindOf(x.Y) == KNull {
				return KNull
			}
		}
	}
	if b, ok := c.prog.TypeOf(e).(types.Basic); ok {
		switch b {
		case types.Int:
			return KInt
		case types.Double:
			return KFloat
		case types.Bool:
			return KBool
		}
	}
	return KNull
}

// value lowers e to a Value closure. An operator whose kind is fixed is
// lowered typed and boxed here; a load, a call or an untyped operator
// lowers generically.
func (c *compiler) value(e ast.Expr) exprFn {
	operator := false
	switch x := e.(type) {
	case *ast.Unary, *ast.Binary:
		operator = true
	case *ast.CallExpr:
		operator = x.Builtin
	}
	if operator {
		switch c.kindOf(e) {
		case KInt:
			f := c.int(e)
			return func(fr *Frame) Value { return IntValue(f(fr)) }
		case KFloat:
			f := c.float(e)
			return func(fr *Frame) Value { return FloatValue(f(fr)) }
		case KBool:
			f := c.bool(e)
			return func(fr *Frame) Value { return BoolValue(f(fr)) }
		}
	}
	return c.generic(e)
}

// generic lowers e to a Value closure without a typed form at its root.
func (c *compiler) generic(e ast.Expr) exprFn {
	switch x := e.(type) {
	case *ast.IntLit:
		return constant(IntValue(x.Value))
	case *ast.FloatLit:
		return constant(FloatValue(x.Value))
	case *ast.BoolLit:
		return constant(BoolValue(x.Value))
	case *ast.NullLit:
		return constant(Value{})
	case *ast.StringLit:
		return constant(StringValue(x.Value))
	case *ast.ThisExpr:
		return func(fr *Frame) Value { return ObjectValue(fr.this) }

	case *ast.Ident:
		slot := x.Slot
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			return func(fr *Frame) Value { return fr.vars[slot] }
		case ast.SymConst:
			return constant(c.code.consts[slot])
		case ast.SymGlobal:
			return func(fr *Frame) Value { return ObjectValue(fr.ctx.IP.globals[slot]) }
		case ast.SymField:
			// A compiled body's this is never nil (Interp.Call).
			return func(fr *Frame) Value { return fr.this.Slots[slot] }
		}
		return c.fails(rtErrf("unresolved identifier %s at %s", x.Name, x.Pos()))

	case *ast.FieldAccess:
		p := c.fieldPath(x, false)
		return func(fr *Frame) Value { return *p(fr) }

	case *ast.IndexExpr:
		at := c.elem(x, false)
		return func(fr *Frame) Value {
			arr, i := at(fr)
			return arr.Elems[i]
		}

	case *ast.CallExpr:
		return c.call(x)

	case *ast.NewExpr:
		cl := c.prog.ClassList[x.ClassIdx]
		return func(fr *Frame) Value { return ObjectValue(fr.ctx.IP.NewObject(cl)) }

	case *ast.CastExpr:
		cl, a := c.prog.ClassList[x.ClassIdx], c.value(x.X)
		return func(fr *Frame) Value { return must(castValue(cl, a(fr), x)) }

	case *ast.Unary:
		a := c.value(x.X)
		return func(fr *Frame) Value { return must(applyUnary(x, a(fr))) }

	case *ast.Binary:
		l, r := c.value(x.X), c.value(x.Y)
		return func(fr *Frame) Value { return must(applyBinary(x, l(fr), r(fr))) }

	case *ast.Assign:
		return c.assign(x)
	}
	return c.fails(rtErrf("unsupported expression at %s", e.Pos()))
}

func (c *compiler) fails(err error) exprFn {
	return func(*Frame) Value { throw(err); return Value{} }
}

func fieldErr(v Value, x *ast.FieldAccess) error {
	if v.kind == KNull {
		return rtErrf(errNullDeref, x.Pos())
	}
	return rtErrf(errFieldNonObj, x.Pos())
}

// fieldPath lowers the chain of field accesses that ends at x — two in
// n->pos.val — to one closure yielding the address of the slot x names.
// It reads the chain's root, then each access in turn checks that it
// reached an object, failing with its own NULL or non-object error (the
// store's, for the last access of a store), and steps into its slot: the
// walker's errors, at the walker's hop.
func (c *compiler) fieldPath(x *ast.FieldAccess, store bool) func(*Frame) *Value {
	var hops []*ast.FieldAccess
	root := ast.Expr(x)
	for fa, ok := x, true; ok; fa, ok = root.(*ast.FieldAccess) {
		hops = append(hops, fa)
		root = fa.X
	}
	slices.Reverse(hops)
	mid, last, rv := hops[:len(hops)-1], x, c.operand(root)
	return func(fr *Frame) *Value {
		var v Value
		switch rv.kind { // never opPath: the root is no field access
		case opVar:
			v = fr.vars[rv.slot]
		case opField:
			v = fr.this.Slots[rv.slot]
		case opGlobal:
			v = ObjectValue(fr.ctx.IP.globals[rv.slot])
		default:
			v = rv.fn(fr)
		}
		for _, h := range mid {
			if v.kind != KObject {
				throw(fieldErr(v, h))
			}
			v = v.ref.(*Object).Slots[h.Slot]
		}
		if v.kind != KObject {
			if store {
				throw(rtErrf(errFieldStoreObj, last.Pos()))
			}
			throw(fieldErr(v, last))
		}
		return &v.ref.(*Object).Slots[last.Slot]
	}
}

// operand is a Value operand the hot closures read where it lies: a
// variable, a this field or a global in place, a field path through its
// one closure, anything else through its value closure. It saves a
// closure call on the bases of field paths and of index expressions.
type operand struct {
	slot int32
	kind uint8 // opVar, opField, opGlobal (slot), opPath (path) or opValue (fn)
	path func(*Frame) *Value
	fn   exprFn
}

const (
	opValue uint8 = iota
	opVar
	opField
	opGlobal
	opPath
)

func (c *compiler) operand(e ast.Expr) operand {
	switch x := e.(type) {
	case *ast.Ident:
		switch {
		case x.Sym == ast.SymLocal || x.Sym == ast.SymParam:
			return operand{slot: x.Slot, kind: opVar}
		case x.Sym == ast.SymField:
			return operand{slot: x.Slot, kind: opField}
		case x.Sym == ast.SymGlobal:
			return operand{slot: x.Slot, kind: opGlobal}
		}
	case *ast.FieldAccess:
		return operand{kind: opPath, path: c.fieldPath(x, false)}
	}
	return operand{fn: c.value(e)}
}

// elem lowers the operands of x to one closure yielding the element's
// array and index: the array, then the index, then the checks, failing
// as elemLoad or, for a store, elemStore fails. An index the checker
// typed int is lowered typed.
func (c *compiler) elem(x *ast.IndexExpr, store bool) func(*Frame) (*Array, int) {
	if c.kindOf(x.Index) != KInt {
		a, j := c.value(x.X), c.value(x.Index)
		return func(fr *Frame) (*Array, int) {
			av, iv := a(fr), j(fr)
			if av.kind == KArray && iv.kind == KInt {
				if arr := av.ref.(*Array); iv.num < uint64(len(arr.Elems)) {
					return arr, int(iv.num)
				}
			}
			throwElem(av, iv, x, store)
			return nil, 0
		}
	}
	a, j := c.operand(x.X), c.int(x.Index)
	return func(fr *Frame) (*Array, int) {
		var av Value
		switch a.kind {
		case opVar:
			av = fr.vars[a.slot]
		case opField:
			av = fr.this.Slots[a.slot]
		case opGlobal:
			av = ObjectValue(fr.ctx.IP.globals[a.slot])
		case opPath:
			av = *a.path(fr)
		default:
			av = a.fn(fr)
		}
		i := j(fr)
		if av.kind == KArray {
			if arr := av.ref.(*Array); uint64(i) < uint64(len(arr.Elems)) {
				return arr, int(i)
			}
		}
		throwElem(av, IntValue(i), x, store)
		return nil, 0
	}
}

// throwElem throws elemLoad's or elemStore's failure. It stays out of
// line, keeping elem's fast path small.
//
//go:noinline
func throwElem(av, iv Value, x *ast.IndexExpr, store bool) {
	check := elemLoad
	if store {
		check = elemStore
	}
	_, _, err := check(av, iv, x)
	throw(err)
}

// int lowers an expression of kind KInt.
func (c *compiler) int(e ast.Expr) func(*Frame) int64 {
	switch x := e.(type) {
	case *ast.IntLit:
		return constant(x.Value)
	case *ast.Ident:
		slot := x.Slot
		switch {
		case x.Sym == ast.SymLocal || x.Sym == ast.SymParam:
			return func(fr *Frame) int64 { return int64(fr.vars[slot].num) }
		case x.Sym == ast.SymConst:
			return constant(int64(c.code.consts[slot].num))
		case x.Sym == ast.SymField:
			return func(fr *Frame) int64 { return int64(fr.this.Slots[slot].num) }
		}
	case *ast.FieldAccess:
		p := c.fieldPath(x, false)
		return func(fr *Frame) int64 { return int64(p(fr).num) }
	case *ast.IndexExpr:
		at := c.elem(x, false)
		return func(fr *Frame) int64 {
			arr, i := at(fr)
			return int64(arr.Elems[i].num)
		}
	case *ast.Unary:
		if x.Op == token.MINUS {
			a := c.int(x.X)
			return func(fr *Frame) int64 { return -a(fr) }
		}
	case *ast.Binary:
		if c.kindOf(x.X) != KInt || c.kindOf(x.Y) != KInt {
			break
		}
		l, r, pos := c.int(x.X), c.int(x.Y), x.Pos()
		switch x.Op {
		case token.SLASH:
			return func(fr *Frame) int64 {
				a, b := l(fr), r(fr)
				if b == 0 {
					throw(rtErrf(errDivZero, pos))
				}
				return a / b
			}
		case token.PERCENT:
			return func(fr *Frame) int64 {
				a, b := l(fr), r(fr)
				if b == 0 {
					throw(rtErrf(errModZero, pos))
				}
				return a % b
			}
		}
		return arith(x.Op, l, r)
	}
	f := c.generic(e)
	return func(fr *Frame) int64 { return int64(f(fr).num) }
}

// float lowers an expression of kind KFloat.
func (c *compiler) float(e ast.Expr) func(*Frame) float64 {
	switch x := e.(type) {
	case *ast.FloatLit:
		return constant(x.Value)
	case *ast.Ident:
		slot := x.Slot
		switch {
		case x.Sym == ast.SymLocal || x.Sym == ast.SymParam:
			return func(fr *Frame) float64 { return math.Float64frombits(fr.vars[slot].num) }
		case x.Sym == ast.SymConst:
			return constant(math.Float64frombits(c.code.consts[slot].num))
		case x.Sym == ast.SymField:
			return func(fr *Frame) float64 { return math.Float64frombits(fr.this.Slots[slot].num) }
		}
	case *ast.FieldAccess:
		p := c.fieldPath(x, false)
		return func(fr *Frame) float64 { return math.Float64frombits(p(fr).num) }
	case *ast.IndexExpr:
		at := c.elem(x, false)
		return func(fr *Frame) float64 {
			arr, i := at(fr)
			return math.Float64frombits(arr.Elems[i].num)
		}
	case *ast.Unary:
		if x.Op == token.MINUS {
			a := c.float(x.X)
			return func(fr *Frame) float64 { return -a(fr) }
		}
	case *ast.Binary:
		switch x.Op {
		case token.PLUS, token.MINUS, token.STAR, token.SLASH:
			return arith(x.Op, c.num(x.X), c.num(x.Y))
		}
	case *ast.CallExpr:
		if mf, ok := builtin1(x.Method); ok && x.Builtin && len(x.Args) == 1 {
			a := c.num(x.Args[0])
			return func(fr *Frame) float64 { return mf(a(fr)) }
		}
		if x.Builtin && x.Method == "pow" && len(x.Args) == 2 {
			a, b := c.num(x.Args[0]), c.num(x.Args[1])
			return func(fr *Frame) float64 { return math.Pow(a(fr), b(fr)) }
		}
	}
	f := c.generic(e)
	return func(fr *Frame) float64 { return math.Float64frombits(f(fr).num) }
}

// num lowers an operand read as a double: an int converts as asFloat
// converts it, and a value of no fixed kind (a builtin's argument) as a
// builtin reads it.
func (c *compiler) num(e ast.Expr) func(*Frame) float64 {
	switch c.kindOf(e) {
	case KFloat:
		return c.float(e)
	case KInt:
		if x, ok := e.(*ast.IntLit); ok {
			return constant(float64(x.Value))
		}
		f := c.int(e)
		return func(fr *Frame) float64 { return float64(f(fr)) }
	}
	f := c.value(e)
	return func(fr *Frame) float64 {
		v, _ := asFloat(f(fr))
		return v
	}
}

// arith is + - * / on two operands of one kind (int / is the caller's:
// it checks for zero).
func arith[T int64 | float64](op token.Kind, l, r func(*Frame) T) func(*Frame) T {
	switch op {
	case token.PLUS:
		return func(fr *Frame) T { return l(fr) + r(fr) }
	case token.MINUS:
		return func(fr *Frame) T { return l(fr) - r(fr) }
	case token.STAR:
		return func(fr *Frame) T { return l(fr) * r(fr) }
	}
	return func(fr *Frame) T { return l(fr) / r(fr) }
}

// compare is an ordering or equality test on two operands of one kind.
func compare[T int64 | float64](op token.Kind, l, r func(*Frame) T) func(*Frame) bool {
	switch op {
	case token.LT:
		return func(fr *Frame) bool { return l(fr) < r(fr) }
	case token.LEQ:
		return func(fr *Frame) bool { return l(fr) <= r(fr) }
	case token.GT:
		return func(fr *Frame) bool { return l(fr) > r(fr) }
	case token.GEQ:
		return func(fr *Frame) bool { return l(fr) >= r(fr) }
	case token.EQ:
		return func(fr *Frame) bool { return l(fr) == r(fr) }
	}
	return func(fr *Frame) bool { return l(fr) != r(fr) }
}

// bool lowers a condition or an expression of kind KBool. A value of no
// fixed kind is tested as the walker's truthy tests it.
func (c *compiler) bool(e ast.Expr) func(*Frame) bool {
	switch x := e.(type) {
	case *ast.BoolLit:
		return constant(x.Value)
	case *ast.Ident:
		if x.Sym == ast.SymLocal || x.Sym == ast.SymParam {
			slot := x.Slot
			return func(fr *Frame) bool { return fr.vars[slot].num != 0 }
		}
	case *ast.Unary:
		if x.Op == token.NOT {
			a := c.bool(x.X)
			return func(fr *Frame) bool { return !a(fr) }
		}
	case *ast.Binary:
		lk, rk := c.kindOf(x.X), c.kindOf(x.Y)
		numeric := (lk == KInt || lk == KFloat) && (rk == KInt || rk == KFloat)
		switch x.Op {
		case token.AND, token.OR:
			l, r := c.bool(x.X), c.bool(x.Y)
			if x.Op == token.AND {
				return func(fr *Frame) bool { return l(fr) && r(fr) }
			}
			return func(fr *Frame) bool { return l(fr) || r(fr) }
		case token.LT, token.LEQ, token.GT, token.GEQ:
			if lk == KInt && rk == KInt {
				return compare(x.Op, c.int(x.X), c.int(x.Y))
			}
			fallthrough
		case token.EQ, token.NEQ:
			// Numbers compare equal as valueEqual compares them: as
			// doubles, ints included.
			if numeric {
				return compare(x.Op, c.num(x.X), c.num(x.Y))
			}
		}
	}
	f := c.generic(e)
	return func(fr *Frame) bool {
		v := f(fr)
		if v.kind != KBool {
			_, err := truthy(v)
			throw(err)
		}
		return v.num != 0
	}
}

// assign lowers an assignment used as a value: the right side first,
// then for a compound form the target's old value, then the store.
func (c *compiler) assign(x *ast.Assign) exprFn {
	rf, sf := c.value(x.RHS), c.store(x.LHS)
	if x.Op == token.ASSIGN {
		return func(fr *Frame) Value {
			v := rf(fr)
			sf(fr, v)
			return v
		}
	}
	lf := c.value(x.LHS)
	return func(fr *Frame) Value {
		r := rf(fr)
		v := must(applyCompound(x, lf(fr), r))
		sf(fr, v)
		return v
	}
}

// store lowers an lvalue.
func (c *compiler) store(lhs ast.Expr) storeFn {
	switch x := lhs.(type) {
	case *ast.Ident:
		slot, co := x.Slot, x.Coerce
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			return func(fr *Frame, v Value) { fr.vars[slot] = coerceKind(co, v) }
		case ast.SymField:
			return func(fr *Frame, v Value) { fr.this.Slots[slot] = coerceKind(co, v) }
		}
		err := rtErrf("cannot assign to %s", x.Name)
		return func(*Frame, Value) { throw(err) }

	case *ast.FieldAccess:
		p, co := c.fieldPath(x, true), x.Coerce
		return func(fr *Frame, v Value) { *p(fr) = coerceKind(co, v) }

	case *ast.IndexExpr:
		at, co := c.elem(x, true), x.Coerce
		return func(fr *Frame, v Value) {
			arr, i := at(fr)
			arr.Elems[i] = coerceKind(co, v)
		}
	}
	err := rtErrf("unsupported assignment target at %s", lhs.Pos())
	return func(*Frame, Value) { throw(err) }
}

// builtin1 maps single-argument math builtins to their kernels.
func builtin1(name string) (func(float64) float64, bool) {
	switch name {
	case "sqrt":
		return math.Sqrt, true
	case "fabs":
		return math.Abs, true
	case "exp":
		return math.Exp, true
	case "log":
		return math.Log, true
	case "floor":
		return math.Floor, true
	case "sin":
		return math.Sin, true
	case "cos":
		return math.Cos, true
	}
	return nil, false
}

func (c *compiler) call(x *ast.CallExpr) exprFn {
	var recvFn exprFn
	if x.Recv != nil {
		recvFn = c.value(x.Recv)
	}
	fns := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		fns[i] = c.value(a)
	}

	if x.Builtin {
		// print, arity oddities and unknown names: evaluate the arguments
		// into a slice and dispatch by name, exactly like the walker.
		name := x.Method
		return func(fr *Frame) Value {
			args := make([]Value, len(fns))
			for i, af := range fns {
				args[i] = af(fr)
			}
			return must(callBuiltin(fr.ctx.IP, name, x, args))
		}
	}

	site := c.prog.CallSites[x.Site]
	callee := site.Callee
	implicitRecv := x.Recv == nil && callee.Class != nil
	n := len(fns)
	ms, cm := c.code.methods[callee.ID], c.methods[callee.ID]
	return func(fr *Frame) Value {
		ctx := fr.ctx
		var recv *Object
		if recvFn != nil {
			rv := recvFn(fr)
			if rv.kind != KObject {
				if rv.kind == KNull {
					throw(rtErrf(errCallOnNull, x.Pos()))
				}
				throw(rtErrf(errCallNonObj, x.Pos()))
			}
			recv = rv.ref.(*Object)
		} else if implicitRecv {
			recv = fr.this
		}
		// The arguments go straight into the callee's frame. A hook gets
		// them as a slice of it, which is popped when the hook returns.
		nf := ctx.pushFrame(ms.n)
		for i, af := range fns {
			nf.vars[i] = coerceKind(ms.paramCo[i], af(fr))
		}
		if ctx.Invoke == nil && cm != nil {
			return ctx.enter(nf, callee, ms, recv, cm.body)
		}
		var v Value
		var err error
		if ctx.Invoke != nil {
			v, err = ctx.Invoke(site, recv, nf.vars[:n:n])
		} else {
			v, err = ctx.IP.Call(ctx, callee, recv, nf.vars[:n:n]) // no definition
		}
		if err != nil {
			throw(err)
		}
		ctx.popFrame()
		return v
	}
}

// compileStmt lowers a statement to a self-contained closure. Each
// statement's prologue (Ctx.tick) counts one step, preserving the
// walker's MaxSteps and Interrupt behavior exactly.
func (c *compiler) compileStmt(s ast.Stmt, ms *methodSlots) stmtFn {
	switch st := s.(type) {
	case *ast.Block:
		subs := make([]stmtFn, len(st.Stmts))
		for i, sub := range st.Stmts {
			subs[i] = c.compileStmt(sub, ms)
		}
		return func(fr *Frame) flow {
			fr.ctx.tick()
			for _, sub := range subs {
				if fl := sub(fr); fl != flowNext {
					return fl
				}
			}
			return flowNext
		}

	case *ast.DeclStmt:
		slot, t := int(st.Slot), c.prog.DeclType[st]
		if at, ok := t.(types.Array); ok && at.Len >= 0 && st.Init == nil {
			if _, prim := primZero(at.Elem); prim {
				o := ownedArray{off: ms.arena, n: at.Len, idx: ms.arrays}
				ms.arena, ms.arrays = ms.arena+at.Len, ms.arrays+1
				return ownedDecl(o, slot, at)
			}
		}
		// Primitive zero values are constants; object/array-typed
		// declarations allocate fresh storage per execution, exactly as
		// the walker's zeroValue does.
		zc, constZero := primZero(t)
		var inf exprFn
		if st.Init != nil {
			inf = c.value(st.Init)
		}
		co := st.Coerce
		return func(fr *Frame) flow {
			fr.ctx.tick()
			if constZero {
				fr.vars[slot] = zc
			} else {
				fr.vars[slot] = fr.ctx.IP.zeroValue(t)
			}
			if inf != nil {
				fr.vars[slot] = coerceKind(co, inf(fr))
			}
			return flowNext
		}

	case *ast.ExprStmt:
		if a, ok := st.X.(*ast.Assign); ok {
			if fn := c.assignStmt(a); fn != nil {
				return fn
			}
		}
		xf := c.value(st.X)
		return func(fr *Frame) flow {
			fr.ctx.tick()
			xf(fr)
			return flowNext
		}

	case *ast.IfStmt:
		cf := c.bool(st.Cond)
		thenFn := c.compileStmt(st.Then, ms)
		var elseFn stmtFn
		if st.Else != nil {
			elseFn = c.compileStmt(st.Else, ms)
		}
		return func(fr *Frame) flow {
			fr.ctx.tick()
			if cf(fr) {
				return thenFn(fr)
			}
			if elseFn != nil {
				return elseFn(fr)
			}
			return flowNext
		}

	case *ast.ForStmt:
		return c.compileFor(st, ms)

	case *ast.WhileStmt:
		cf := c.bool(st.Cond)
		bodyFn := c.compileStmt(st.Body, ms)
		return func(fr *Frame) flow {
			fr.ctx.tick()
			for cf(fr) {
				if fl := bodyFn(fr); fl != flowNext {
					return fl
				}
			}
			return flowNext
		}

	case *ast.ReturnStmt:
		if st.X == nil {
			return func(fr *Frame) flow {
				fr.ctx.tick()
				fr.ret = Value{}
				return flowReturn
			}
		}
		xf, retCo := c.value(st.X), ms.retCo
		return func(fr *Frame) flow {
			fr.ctx.tick()
			fr.ret = coerceKind(retCo, xf(fr))
			return flowReturn
		}
	}
	err := rtErrf("unsupported statement at %s", s.Pos())
	return func(*Frame) flow { throw(err); return flowNext }
}

// ownedDecl lowers the declaration of a frame-owned local array — a
// sized array of primitive or pointer elements with no initializer,
// placed in the frame at o: every execution zero-fills the array's place
// in the frame's arena and binds the variable to it, allocating nothing.
// Reuse is sound because nothing outlives the activation that declared
// the array: the dialect never stores or returns an array, a synchronous
// callee returns before the frame pops, and a spawned task reads a
// snapshot (rt's spawn, and the emitted spawn). A monitored activation
// runs on the walker, which allocates a fresh array per execution: the
// journal keys an element by its address, so storage reused across
// activations would alias their buffered writes.
func ownedDecl(o ownedArray, slot int, t types.Array) stmtFn {
	z, _ := primZero(t.Elem)
	return func(fr *Frame) flow {
		fr.ctx.tick()
		e := fr.arena[o.off : o.off+o.n : o.off+o.n]
		for i := range e {
			e[i] = z
		}
		a := &fr.arrays[o.idx]
		a.Elems = e
		fr.vars[slot] = ArrayValue(a)
		return flowNext
	}
}

// assignStmt lowers the expression statement lhs op= rhs to one closure
// (nil: the generic lowering applies) where op is =, +=, -=, *= or — on
// doubles — /=, both sides have one numeric kind, and the target is a
// local, a parameter, a this field, or o->f or a[i] over pure operands.
// The closure keeps the generic lowering's order — the right side, then
// the target — and its errors: pure operands evaluate to the same values
// for the load as for the store.
func (c *compiler) assignStmt(x *ast.Assign) stmtFn {
	var op token.Kind
	switch x.Op {
	case token.ASSIGN:
	case token.PLUSEQ:
		op = token.PLUS
	case token.MINUSEQ:
		op = token.MINUS
	case token.STAREQ:
		op = token.STAR
	case token.SLASHEQ:
		op = token.SLASH
	default:
		return nil
	}
	k := c.kindOf(x.LHS)
	if k != c.kindOf(x.RHS) || k != KFloat && (k != KInt || op == token.SLASH) {
		return nil
	}
	// slot >= 0: a local or parameter; else ref is the target.
	slot := int32(-1)
	var ref func(*Frame) *Value
	switch t := x.LHS.(type) {
	case *ast.Ident:
		switch {
		case t.Sym == ast.SymLocal || t.Sym == ast.SymParam:
			slot = t.Slot
		case t.Sym == ast.SymField:
			fs := t.Slot
			ref = func(fr *Frame) *Value { return &fr.this.Slots[fs] }
		default:
			return nil
		}
	case *ast.FieldAccess:
		if !ast.Pure(t.X) {
			return nil
		}
		ref = c.fieldPath(t, op == 0)
	case *ast.IndexExpr:
		if !ast.Pure(t.X) || !ast.Pure(t.Index) {
			return nil
		}
		at := c.elem(t, op == 0)
		ref = func(fr *Frame) *Value {
			arr, i := at(fr)
			return &arr.Elems[i]
		}
	default:
		return nil
	}
	if k == KInt {
		rf := c.int(x.RHS)
		if ref == nil {
			return func(fr *Frame) flow {
				fr.ctx.tick()
				v := rf(fr)
				if op != 0 {
					v = apply(op, int64(fr.vars[slot].num), v)
				}
				fr.vars[slot] = IntValue(v)
				return flowNext
			}
		}
		return func(fr *Frame) flow {
			fr.ctx.tick()
			v := rf(fr)
			p := ref(fr)
			if op != 0 {
				v = apply(op, int64(p.num), v)
			}
			*p = IntValue(v)
			return flowNext
		}
	}
	rf := c.float(x.RHS)
	if ref == nil {
		return func(fr *Frame) flow {
			fr.ctx.tick()
			v := rf(fr)
			if op != 0 {
				v = apply(op, math.Float64frombits(fr.vars[slot].num), v)
			}
			fr.vars[slot] = FloatValue(v)
			return flowNext
		}
	}
	return func(fr *Frame) flow {
		fr.ctx.tick()
		v := rf(fr)
		p := ref(fr)
		if op != 0 {
			v = apply(op, math.Float64frombits(p.num), v)
		}
		*p = FloatValue(v)
		return flowNext
	}
}

// apply is + - * / on two numbers of one kind (no int division reaches
// it).
func apply[T int64 | float64](op token.Kind, a, b T) T {
	switch op {
	case token.PLUS:
		return a + b
	case token.MINUS:
		return a - b
	case token.STAR:
		return a * b
	}
	return a / b
}

// compileFor lowers a for loop. The counted header is matched here,
// once (the walker's countedLoop is the same test). A counted loop whose
// variable and bound the checker typed int is lowered by countedFor, and
// registered in c.loops, slot and compiled body, so RunLoopIteration
// executes parallel iterations without matching again. No other loop is
// offered to the ForLoop dispatcher: the walker's run-time test — an int
// variable, an int bound — fails on it whatever the values, as a slot
// and a pure expression hold the kinds their types fix (kindOf).
func (c *compiler) compileFor(st *ast.ForStmt, ms *methodSlots) stmtFn {
	var initFn stmtFn
	if st.Init != nil {
		initFn = c.compileStmt(st.Init, ms)
	}
	bodyFn := c.compileStmt(st.Body, ms)
	if h, ok := ast.MatchCountedLoop(st); ok && ast.Pure(h.Bound) && c.kindOf(h.Var) == KInt && c.kindOf(h.Bound) == KInt {
		c.loops[st] = loopBody{slot: h.Var.Slot, body: bodyFn}
		return countedFor(st, initFn, bodyFn, h.Var.Slot, c.int(h.Bound), h.Step)
	}
	cf := constant(true)
	if st.Cond != nil {
		cf = c.bool(st.Cond)
	}
	var postFn stmtFn
	if st.Post != nil {
		postFn = c.compileStmt(st.Post, ms)
	}
	return func(fr *Frame) flow {
		fr.ctx.tick()
		if initFn != nil {
			if fl := initFn(fr); fl != flowNext {
				return fl
			}
		}
		for cf(fr) {
			if fl := bodyFn(fr); fl != flowNext {
				return fl
			}
			if postFn != nil {
				if fl := postFn(fr); fl != flowNext {
					return fl
				}
			}
		}
		return flowNext
	}
}

// countedFor runs a counted loop whose variable and bound the checker
// typed int as one Go loop over the variable's slot: the condition is a
// typed compare against the bound, evaluated again before every
// iteration (the body may write the variable or what the bound reads),
// and the post is the slot's increment behind the Ctx.tick its statement
// would take, so steps, MaxSteps and Interrupt land where they do in the
// generic loop. The loop is offered to the ForLoop dispatcher first.
func countedFor(st *ast.ForStmt, initFn, bodyFn stmtFn, slot int32, to func(*Frame) int64, step int64) stmtFn {
	return func(fr *Frame) flow {
		ctx := fr.ctx
		ctx.tick()
		if initFn != nil {
			if fl := initFn(fr); fl != flowNext {
				return fl
			}
		}
		if ctx.ForLoop != nil {
			from, bound := int64(fr.vars[slot].num), to(fr)
			handled, err := ctx.ForLoop(st, fr, from, bound, step)
			if err != nil {
				throw(err)
			}
			if handled {
				fr.vars[slot] = IntValue(rtkit.LoopExit(from, bound, step))
				return flowNext
			}
		}
		v := &fr.vars[slot]
		for int64(v.num) < to(fr) {
			if fl := bodyFn(fr); fl != flowNext {
				return fl
			}
			ctx.tick()
			*v = IntValue(int64(v.num) + step)
		}
		return flowNext
	}
}
