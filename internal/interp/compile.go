package interp

// Closure compilation: each resolved method body is lowered once per
// program to a tree of closures, so steady-state execution never
// type-switches on AST nodes. The lowering happens inside
// buildResolution, under the same lock and cache as slot resolution.
//
// An expression whose checked type is int, double or boolean is lowered
// to a closure returning the bare payload (int64, float64, bool): the
// type fixes the kind of every value it yields (kindOf), so no kind is
// tested and nothing is boxed until a Value consumer — a store, an
// argument, a return — needs one. Everything else yields a Value.
// Compiled closures return no errors: a failure throws (throw), and only
// Interp.Call and RunLoopIteration catch it (Ctx.catch).
//
// Cost parity with the tree walker is a hard requirement: the tracer
// charges cost units through Ctx.Charge and attributes them to compute
// or critical segments at dispatcher-hook boundaries (Ctx.Invoke /
// Ctx.ForLoop calls), so the DASH simulator sees identical traces from
// both engines only if the totals charged between consecutive hook
// calls match. No hook can fire inside a call-free expression subtree,
// so the compiler statically sums the walker's per-node charges over
// every such subtree and charges the sum once ("sealing"). Subtrees
// whose charge depends on runtime control flow (short-circuit
// operators) or that contain hook boundaries (calls) charge themselves
// piecewise in walker order. Every statement opens with Ctx.tick, which
// counts it and charges its units; statements are never coalesced, so
// MaxSteps budgets and Interrupt polling behave identically under both
// engines.

import (
	"math"

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

// thrown carries a failure of compiled code to the Ctx.catch of the
// innermost Interp.Call or RunLoopIteration.
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
	res  *resolution
	// mon selects the monitored load/store kernels: field and element
	// accesses route through fr.ctx.Mon (guaranteed non-nil when a
	// monitored body runs — Call and RunLoopIteration select the
	// monitored tables only under a non-nil Mon). The unmonitored pass
	// carries no monitor branches; typed loads of fields and elements
	// exist only there. Cost sealing is identical in both passes, so
	// traces stay bit-for-bit comparable.
	mon bool
	// loops receives the offered counted loops for RunLoopIteration
	// (res.loopBodies or res.loopBodiesMon, per pass).
	loops map[*ast.ForStmt]loopBody
	// methods is the pass's table, indexed by types.Method.ID: a call
	// site enters its callee's body of the same pass.
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

// compileAll lowers every method body of r's program in one pass (mon
// selects the monitored kernels). The table is made before any body is
// lowered, so a call site can hold its callee's entry.
func compileAll(r *resolution, mon bool) ([]*compiledMethod, map[*ast.ForStmt]loopBody) {
	c := &compiler{prog: r.prog, res: r, mon: mon, loops: make(map[*ast.ForStmt]loopBody),
		methods: make([]*compiledMethod, len(r.prog.Methods)), kinds: make([]Kind, len(r.prog.ExprType))}
	for _, m := range r.prog.Methods {
		if m.Def != nil {
			c.methods[m.ID] = &compiledMethod{}
		}
	}
	for _, m := range r.prog.Methods {
		if m.Def != nil {
			c.methods[m.ID].body = c.compileStmt(m.Def.Body, r.methods[m.ID])
		}
	}
	return c.methods, c.loops
}

// code is one lowered expression. Either its closure charges nothing
// itself (dyn false: cost is the walker's total charge for the subtree,
// which the enclosing statement or a seal charges) or it charges itself
// piecewise in walker order (dyn true, cost zero).
type code[T any] struct {
	fn   func(*Frame) T
	cost int64
	dyn  bool
}

func leaf[T any](fn func(*Frame) T) code[T] { return code[T]{fn: fn, cost: CostExpr} }

func constant[T any](v T) code[T] { return leaf(func(*Frame) T { return v }) }

// sealed is e's closure charging its own cost.
func (e code[T]) sealed() func(*Frame) T {
	if e.dyn || e.cost == 0 {
		return e.fn
	}
	fn, cost := e.fn, e.cost
	return func(fr *Frame) T {
		fr.ctx.charge(cost)
		return fn(fr)
	}
}

// selfCharged is a node whose operands charge themselves: it charges
// its own CostExpr first, as the walker does.
func selfCharged[T any](fn func(*Frame) T) code[T] {
	return code[T]{fn: func(fr *Frame) T {
		fr.ctx.charge(CostExpr)
		return fn(fr)
	}, dyn: true}
}

// op1 lowers a node with one operand; mk builds the node's closure over
// the operand's.
func op1[A, T any](a code[A], mk func(func(*Frame) A) func(*Frame) T) code[T] {
	if !a.dyn {
		return code[T]{fn: mk(a.fn), cost: CostExpr + a.cost}
	}
	return selfCharged(mk(a.fn))
}

// op2 lowers a node with two operands, evaluated left to right.
func op2[A, B, T any](a code[A], b code[B], mk func(func(*Frame) A, func(*Frame) B) func(*Frame) T) code[T] {
	if !a.dyn && !b.dyn {
		return code[T]{fn: mk(a.fn, b.fn), cost: CostExpr + a.cost + b.cost}
	}
	return selfCharged(mk(a.sealed(), b.sealed()))
}

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
func (c *compiler) value(e ast.Expr) code[Value] {
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
			i := c.int(e)
			f := i.fn
			return code[Value]{func(fr *Frame) Value { return IntValue(f(fr)) }, i.cost, i.dyn}
		case KFloat:
			d := c.float(e)
			f := d.fn
			return code[Value]{func(fr *Frame) Value { return FloatValue(f(fr)) }, d.cost, d.dyn}
		case KBool:
			b := c.bool(e)
			f := b.fn
			return code[Value]{func(fr *Frame) Value { return BoolValue(f(fr)) }, b.cost, b.dyn}
		}
	}
	return c.generic(e)
}

// generic lowers e to a Value closure without a typed form at its root.
func (c *compiler) generic(e ast.Expr) code[Value] {
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
		return leaf(func(fr *Frame) Value { return ObjectValue(fr.this) })

	case *ast.Ident:
		slot := x.Slot
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			return leaf(func(fr *Frame) Value { return fr.vars[slot] })
		case ast.SymConst:
			return constant(c.res.consts[slot])
		case ast.SymGlobal:
			return leaf(func(fr *Frame) Value { return ObjectValue(fr.ctx.IP.globals[slot]) })
		case ast.SymField:
			// A compiled body's this is never nil (Interp.Call).
			if c.mon {
				return leaf(func(fr *Frame) Value { return fr.ctx.Mon.LoadField(fr.this, int(slot)) })
			}
			return leaf(func(fr *Frame) Value { return fr.this.Slots[slot] })
		}
		return c.fails(rtErrf("unresolved identifier %s at %s", x.Name, x.Pos()))

	case *ast.FieldAccess:
		slot := x.Slot
		if c.mon {
			return op1(c.value(x.X), func(b exprFn) exprFn {
				return func(fr *Frame) Value { return fr.ctx.Mon.LoadField(object(b(fr), x), int(slot)) }
			})
		}
		return op1(c.value(x.X), func(b exprFn) exprFn {
			return func(fr *Frame) Value { return object(b(fr), x).Slots[slot] }
		})

	case *ast.IndexExpr:
		if c.mon {
			return op2(c.value(x.X), c.value(x.Index), func(a, j exprFn) exprFn {
				return func(fr *Frame) Value {
					arr, i := loadAt(a(fr), j(fr), x)
					return fr.ctx.Mon.LoadElem(arr, i)
				}
			})
		}
		return op2(c.value(x.X), c.value(x.Index), func(a, j exprFn) exprFn {
			return func(fr *Frame) Value {
				arr, i := loadAt(a(fr), j(fr), x)
				return arr.Elems[i]
			}
		})

	case *ast.CallExpr:
		return c.call(x)

	case *ast.NewExpr:
		cl := c.res.classList[x.ClassIdx]
		return code[Value]{fn: func(fr *Frame) Value { return ObjectValue(fr.ctx.IP.NewObject(cl)) }, cost: CostExpr + CostAlloc}

	case *ast.CastExpr:
		cl := c.res.classList[x.ClassIdx]
		return op1(c.value(x.X), func(a exprFn) exprFn {
			return func(fr *Frame) Value { return must(castValue(cl, a(fr), x)) }
		})

	case *ast.Unary:
		return op1(c.value(x.X), func(a exprFn) exprFn {
			return func(fr *Frame) Value { return must(applyUnary(x, a(fr))) }
		})

	case *ast.Binary:
		return op2(c.value(x.X), c.value(x.Y), func(l, r exprFn) exprFn {
			return func(fr *Frame) Value { return must(applyBinary(x, l(fr), r(fr))) }
		})

	case *ast.Assign:
		return c.assign(x)
	}
	return c.fails(rtErrf("unsupported expression at %s", e.Pos()))
}

func (c *compiler) fails(err error) code[Value] {
	return leaf(func(*Frame) Value { throw(err); return Value{} })
}

// object is the object a field access reads, failing as the walker does
// on NULL or a non-object.
func object(v Value, x *ast.FieldAccess) *Object {
	if v.kind != KObject {
		throw(fieldErr(v, x))
	}
	return v.ref.(*Object)
}

// storeObject is the object a field store writes.
func storeObject(v Value, x *ast.FieldAccess) *Object {
	if v.kind != KObject {
		throw(rtErrf(errFieldStoreObj, x.Pos()))
	}
	return v.ref.(*Object)
}

func fieldErr(v Value, x *ast.FieldAccess) error {
	if v.kind == KNull {
		return rtErrf(errNullDeref, x.Pos())
	}
	return rtErrf(errFieldNonObj, x.Pos())
}

// loadAt and storeAt are the element an index expression reads or
// writes, failing as indexLoad and indexStore fail.
func loadAt(arrV, idxV Value, x *ast.IndexExpr) (*Array, int) {
	if arrV.kind == KArray && idxV.kind == KInt {
		if arr := arrV.ref.(*Array); idxV.num < uint64(len(arr.Elems)) {
			return arr, int(idxV.num)
		}
	}
	throwLoad(arrV, idxV, x)
	return nil, 0
}

// throwLoad stays out of line, keeping loadAt's fast path small.
//
//go:noinline
func throwLoad(arrV, idxV Value, x *ast.IndexExpr) {
	_, _, err := elemLoad(arrV, idxV, x)
	throw(err)
}

func storeAt(arrV, idxV Value, x *ast.IndexExpr) (*Array, int) {
	arr, i, err := elemStore(arrV, idxV, x)
	if err != nil {
		throw(err)
	}
	return arr, i
}

// int lowers an expression of kind KInt.
func (c *compiler) int(e ast.Expr) code[int64] {
	switch x := e.(type) {
	case *ast.IntLit:
		return constant(x.Value)
	case *ast.Ident:
		slot := x.Slot
		switch {
		case x.Sym == ast.SymLocal || x.Sym == ast.SymParam:
			return leaf(func(fr *Frame) int64 { return int64(fr.vars[slot].num) })
		case x.Sym == ast.SymConst:
			return constant(int64(c.res.consts[slot].num))
		case x.Sym == ast.SymField && !c.mon:
			return leaf(func(fr *Frame) int64 { return int64(fr.this.Slots[slot].num) })
		}
	case *ast.FieldAccess:
		if !c.mon {
			slot := x.Slot
			return op1(c.value(x.X), func(b exprFn) func(*Frame) int64 {
				return func(fr *Frame) int64 { return int64(object(b(fr), x).Slots[slot].num) }
			})
		}
	case *ast.IndexExpr:
		if !c.mon {
			return op2(c.value(x.X), c.value(x.Index), func(a, j exprFn) func(*Frame) int64 {
				return func(fr *Frame) int64 {
					arr, i := loadAt(a(fr), j(fr), x)
					return int64(arr.Elems[i].num)
				}
			})
		}
	case *ast.Unary:
		if x.Op == token.MINUS {
			return op1(c.int(x.X), func(a func(*Frame) int64) func(*Frame) int64 {
				return func(fr *Frame) int64 { return -a(fr) }
			})
		}
	case *ast.Binary:
		if c.kindOf(x.X) != KInt || c.kindOf(x.Y) != KInt {
			break
		}
		pos := x.Pos()
		return op2(c.int(x.X), c.int(x.Y), func(l, r func(*Frame) int64) func(*Frame) int64 {
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
		})
	}
	g := c.generic(e)
	f := g.fn
	return code[int64]{func(fr *Frame) int64 { return int64(f(fr).num) }, g.cost, g.dyn}
}

// float lowers an expression of kind KFloat.
func (c *compiler) float(e ast.Expr) code[float64] {
	switch x := e.(type) {
	case *ast.FloatLit:
		return constant(x.Value)
	case *ast.Ident:
		slot := x.Slot
		switch {
		case x.Sym == ast.SymLocal || x.Sym == ast.SymParam:
			return leaf(func(fr *Frame) float64 { return math.Float64frombits(fr.vars[slot].num) })
		case x.Sym == ast.SymConst:
			return constant(math.Float64frombits(c.res.consts[slot].num))
		case x.Sym == ast.SymField && !c.mon:
			return leaf(func(fr *Frame) float64 { return math.Float64frombits(fr.this.Slots[slot].num) })
		}
	case *ast.FieldAccess:
		if !c.mon {
			slot := x.Slot
			return op1(c.value(x.X), func(b exprFn) func(*Frame) float64 {
				return func(fr *Frame) float64 { return math.Float64frombits(object(b(fr), x).Slots[slot].num) }
			})
		}
	case *ast.IndexExpr:
		if !c.mon {
			return op2(c.value(x.X), c.value(x.Index), func(a, j exprFn) func(*Frame) float64 {
				return func(fr *Frame) float64 {
					arr, i := loadAt(a(fr), j(fr), x)
					return math.Float64frombits(arr.Elems[i].num)
				}
			})
		}
	case *ast.Unary:
		if x.Op == token.MINUS {
			return op1(c.float(x.X), func(a func(*Frame) float64) func(*Frame) float64 {
				return func(fr *Frame) float64 { return -a(fr) }
			})
		}
	case *ast.Binary:
		switch x.Op {
		case token.PLUS, token.MINUS, token.STAR, token.SLASH:
			return op2(c.num(x.X), c.num(x.Y), func(l, r func(*Frame) float64) func(*Frame) float64 {
				return arith(x.Op, l, r)
			})
		}
	case *ast.CallExpr:
		if mf, ok := builtin1(x.Method); ok && x.Builtin && len(x.Args) == 1 {
			// Builtins never reach a dispatcher hook: over a static
			// argument the whole cost (argument + CostBuiltin) is static.
			a := c.num(x.Args[0])
			af := a.fn
			if !a.dyn {
				return code[float64]{fn: func(fr *Frame) float64 { return mf(af(fr)) }, cost: CostExpr + a.cost + CostBuiltin}
			}
			return code[float64]{fn: func(fr *Frame) float64 {
				fr.ctx.charge(CostExpr)
				v := af(fr)
				fr.ctx.charge(CostBuiltin)
				return mf(v)
			}, dyn: true}
		}
		if x.Builtin && x.Method == "pow" && len(x.Args) == 2 {
			a, b := c.num(x.Args[0]), c.num(x.Args[1])
			if !a.dyn && !b.dyn {
				af, bf := a.fn, b.fn
				return code[float64]{fn: func(fr *Frame) float64 { return math.Pow(af(fr), bf(fr)) }, cost: CostExpr + a.cost + b.cost + CostBuiltin}
			}
			af, bf := a.sealed(), b.sealed()
			return code[float64]{fn: func(fr *Frame) float64 {
				fr.ctx.charge(CostExpr)
				v, w := af(fr), bf(fr)
				fr.ctx.charge(CostBuiltin)
				return math.Pow(v, w)
			}, dyn: true}
		}
	}
	g := c.generic(e)
	f := g.fn
	return code[float64]{func(fr *Frame) float64 { return math.Float64frombits(f(fr).num) }, g.cost, g.dyn}
}

// num lowers an operand read as a double: an int converts as asFloat
// converts it, and a value of no fixed kind (a builtin's argument) as a
// builtin reads it.
func (c *compiler) num(e ast.Expr) code[float64] {
	switch c.kindOf(e) {
	case KFloat:
		return c.float(e)
	case KInt:
		if x, ok := e.(*ast.IntLit); ok {
			return constant(float64(x.Value))
		}
		i := c.int(e)
		f := i.fn
		return code[float64]{func(fr *Frame) float64 { return float64(f(fr)) }, i.cost, i.dyn}
	}
	g := c.value(e)
	f := g.fn
	return code[float64]{func(fr *Frame) float64 {
		v, _ := asFloat(f(fr))
		return v
	}, g.cost, g.dyn}
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
func (c *compiler) bool(e ast.Expr) code[bool] {
	switch x := e.(type) {
	case *ast.BoolLit:
		return constant(x.Value)
	case *ast.Ident:
		if x.Sym == ast.SymLocal || x.Sym == ast.SymParam {
			slot := x.Slot
			return leaf(func(fr *Frame) bool { return fr.vars[slot].num != 0 })
		}
	case *ast.Unary:
		if x.Op == token.NOT {
			return op1(c.bool(x.X), func(a func(*Frame) bool) func(*Frame) bool {
				return func(fr *Frame) bool { return !a(fr) }
			})
		}
	case *ast.Binary:
		lk, rk := c.kindOf(x.X), c.kindOf(x.Y)
		numeric := (lk == KInt || lk == KFloat) && (rk == KInt || rk == KFloat)
		switch x.Op {
		case token.AND, token.OR:
			// The right operand charges only when it evaluates, exactly
			// as in the walker.
			l, r := c.bool(x.X).sealed(), c.bool(x.Y).sealed()
			if x.Op == token.AND {
				return selfCharged(func(fr *Frame) bool { return l(fr) && r(fr) })
			}
			return selfCharged(func(fr *Frame) bool { return l(fr) || r(fr) })
		case token.LT, token.LEQ, token.GT, token.GEQ:
			if lk == KInt && rk == KInt {
				return op2(c.int(x.X), c.int(x.Y), func(l, r func(*Frame) int64) func(*Frame) bool {
					return compare(x.Op, l, r)
				})
			}
			fallthrough
		case token.EQ, token.NEQ:
			// Numbers compare equal as valueEqual compares them: as
			// doubles, ints included.
			if numeric {
				return op2(c.num(x.X), c.num(x.Y), func(l, r func(*Frame) float64) func(*Frame) bool {
					return compare(x.Op, l, r)
				})
			}
		}
	}
	g := c.generic(e)
	f := g.fn
	return code[bool]{func(fr *Frame) bool {
		v := f(fr)
		if v.kind != KBool {
			_, err := truthy(v)
			throw(err)
		}
		return v.num != 0
	}, g.cost, g.dyn}
}

// store is a lowered lvalue. The walker charges only for the lvalue's
// subexpressions (the target node itself is free), and cost and dyn
// follow code's convention over those.
type store struct {
	fn   storeFn
	cost int64
	dyn  bool
}

func (s store) sealed() storeFn {
	if s.dyn || s.cost == 0 {
		return s.fn
	}
	fn, cost := s.fn, s.cost
	return func(fr *Frame, v Value) {
		fr.ctx.charge(cost)
		fn(fr, v)
	}
}

// assign lowers an assignment used as a value: the right side first,
// then for a compound form the target's old value, then the store.
func (c *compiler) assign(x *ast.Assign) code[Value] {
	rhs, st := c.value(x.RHS), c.store(x.LHS)
	old := code[Value]{fn: func(*Frame) Value { return Value{} }}
	if x.Op != token.ASSIGN {
		old = c.value(x.LHS)
	}
	dyn := rhs.dyn || old.dyn || st.dyn
	rf, lf, sf := rhs.fn, old.fn, st.fn
	if dyn {
		rf, lf, sf = rhs.sealed(), old.sealed(), st.sealed()
	}
	var fn exprFn
	if x.Op == token.ASSIGN {
		fn = func(fr *Frame) Value {
			v := rf(fr)
			sf(fr, v)
			return v
		}
	} else {
		fn = func(fr *Frame) Value {
			r := rf(fr)
			v := must(applyCompound(x, lf(fr), r))
			sf(fr, v)
			return v
		}
	}
	if dyn {
		return selfCharged(fn)
	}
	return code[Value]{fn: fn, cost: CostExpr + rhs.cost + old.cost + st.cost}
}

// store lowers an lvalue.
func (c *compiler) store(lhs ast.Expr) store {
	switch x := lhs.(type) {
	case *ast.Ident:
		slot, co := x.Slot, x.Coerce
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			return store{fn: func(fr *Frame, v Value) { fr.vars[slot] = coerceKind(co, v) }}
		case ast.SymField:
			if c.mon {
				return store{fn: func(fr *Frame, v Value) { fr.ctx.Mon.StoreField(fr.this, int(slot), coerceKind(co, v)) }}
			}
			return store{fn: func(fr *Frame, v Value) { fr.this.Slots[slot] = coerceKind(co, v) }}
		}
		err := rtErrf("cannot assign to %s", x.Name)
		return store{fn: func(*Frame, Value) { throw(err) }}

	case *ast.FieldAccess:
		b := c.value(x.X)
		bf, slot, co := b.fn, x.Slot, x.Coerce
		if c.mon {
			return store{func(fr *Frame, v Value) { fr.ctx.Mon.StoreField(storeObject(bf(fr), x), int(slot), coerceKind(co, v)) }, b.cost, b.dyn}
		}
		return store{func(fr *Frame, v Value) { storeObject(bf(fr), x).Slots[slot] = coerceKind(co, v) }, b.cost, b.dyn}

	case *ast.IndexExpr:
		a, j := c.value(x.X), c.value(x.Index)
		s := store{cost: a.cost + j.cost, dyn: a.dyn || j.dyn}
		af, jf := a.fn, j.fn
		if s.dyn {
			af, jf, s.cost = a.sealed(), j.sealed(), 0
		}
		co := x.Coerce
		if c.mon {
			s.fn = func(fr *Frame, v Value) {
				arr, i := storeAt(af(fr), jf(fr), x)
				fr.ctx.Mon.StoreElem(arr, i, coerceKind(co, v))
			}
		} else {
			s.fn = func(fr *Frame, v Value) {
				arr, i := storeAt(af(fr), jf(fr), x)
				arr.Elems[i] = coerceKind(co, v)
			}
		}
		return s
	}
	err := rtErrf("unsupported assignment target at %s", lhs.Pos())
	return store{fn: func(*Frame, Value) { throw(err) }}
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

func (c *compiler) call(x *ast.CallExpr) code[Value] {
	// The receiver and the arguments: where none holds a call, their
	// charge joins the call's own CostExpr, up front; else each charges
	// itself, in walker order.
	var recvFn exprFn
	parts := make([]code[Value], 0, len(x.Args)+1)
	if x.Recv != nil {
		parts = append(parts, c.value(x.Recv))
	}
	for _, a := range x.Args {
		parts = append(parts, c.value(a))
	}
	pre, dyn := int64(CostExpr), false
	for _, p := range parts {
		pre, dyn = pre+p.cost, dyn || p.dyn
	}
	fns := make([]exprFn, len(parts))
	for i, p := range parts {
		fns[i] = p.fn
		if dyn {
			fns[i] = p.sealed()
		}
	}
	if dyn {
		pre = CostExpr
	}
	if x.Recv != nil {
		recvFn, fns = fns[0], fns[1:]
	}

	if x.Builtin {
		// print, arity oddities and unknown names: evaluate the arguments
		// into a slice and dispatch by name, exactly like the walker.
		name := x.Method
		return code[Value]{fn: func(fr *Frame) Value {
			fr.ctx.charge(pre)
			args := make([]Value, len(fns))
			for i, af := range fns {
				args[i] = af(fr)
			}
			fr.ctx.charge(CostBuiltin)
			return must(callBuiltin(fr.ctx.IP, name, x, args))
		}, dyn: true}
	}

	site := c.prog.CallSites[x.Site]
	callee := site.Callee
	implicitRecv := x.Recv == nil && callee.Class != nil
	n := len(fns)
	ms, cm := c.res.methods[callee.ID], c.methods[callee.ID]
	return code[Value]{fn: func(fr *Frame) Value {
		ctx := fr.ctx
		ctx.charge(pre)
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
	}, dyn: true}
}

// compileStmt lowers a statement to a self-contained closure. Each
// statement's prologue (Ctx.tick) counts one step and charges CostStmt
// plus the static cost of its call-free expression operands up front —
// preserving the walker's MaxSteps and Interrupt behavior exactly.
func (c *compiler) compileStmt(s ast.Stmt, ms *methodSlots) stmtFn {
	switch st := s.(type) {
	case *ast.Block:
		subs := make([]stmtFn, len(st.Stmts))
		for i, sub := range st.Stmts {
			subs[i] = c.compileStmt(sub, ms)
		}
		return func(fr *Frame) flow {
			fr.ctx.tick(CostStmt)
			for _, sub := range subs {
				if fl := sub(fr); fl != flowNext {
					return fl
				}
			}
			return flowNext
		}

	case *ast.DeclStmt:
		slot := int(st.Slot)
		t := ms.types[slot]
		// Primitive zero values are constants; object/array-typed
		// declarations allocate fresh storage per execution, exactly as
		// the walker's zeroValue does.
		zc, constZero := primZero(t)
		inf, entry, co := func(*Frame) Value { return zc }, int64(CostStmt), ast.CoNone
		if st.Init != nil {
			in := c.value(st.Init)
			inf, entry, co = in.fn, operandEntry(in), st.Coerce
		}
		return func(fr *Frame) flow {
			fr.ctx.tick(entry)
			if constZero {
				fr.vars[slot] = zc
			} else {
				fr.vars[slot] = fr.ctx.IP.zeroValue(t)
			}
			if st.Init != nil {
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
		x := c.value(st.X)
		xf, entry := x.fn, operandEntry(x)
		return func(fr *Frame) flow {
			fr.ctx.tick(entry)
			xf(fr)
			return flowNext
		}

	case *ast.IfStmt:
		cond := c.bool(st.Cond)
		cf, entry := cond.fn, operandEntry(cond)
		thenFn := c.compileStmt(st.Then, ms)
		var elseFn stmtFn
		if st.Else != nil {
			elseFn = c.compileStmt(st.Else, ms)
		}
		return func(fr *Frame) flow {
			fr.ctx.tick(entry)
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
		cond := c.bool(st.Cond)
		cf, cc := cond.fn, cond.cost
		bodyFn := c.compileStmt(st.Body, ms)
		return func(fr *Frame) flow {
			fr.ctx.tick(CostStmt)
			for fr.ctx.charge(cc); cf(fr); fr.ctx.charge(cc) {
				if fl := bodyFn(fr); fl != flowNext {
					return fl
				}
			}
			return flowNext
		}

	case *ast.ReturnStmt:
		if st.X == nil {
			return func(fr *Frame) flow {
				fr.ctx.tick(CostStmt)
				fr.ret = Value{}
				return flowReturn
			}
		}
		x := c.value(st.X)
		xf, entry, retCo := x.fn, operandEntry(x), ms.retCo
		return func(fr *Frame) flow {
			fr.ctx.tick(entry)
			fr.ret = coerceKind(retCo, xf(fr))
			return flowReturn
		}
	}
	err := rtErrf("unsupported statement at %s", s.Pos())
	return func(*Frame) flow { throw(err); return flowNext }
}

// operandEntry is the prologue charge of a statement over one operand:
// CostStmt, plus the operand's cost where it is static.
func operandEntry[T any](e code[T]) int64 {
	if e.dyn {
		return CostStmt
	}
	return CostStmt + e.cost
}

// assignStmt lowers the expression statement lhs op= rhs to one closure
// (nil: the generic lowering applies) where op is =, +=, -=, *= or — on
// doubles — /=, both sides have one numeric kind, and the target is a
// local, a parameter, a this field, or o->f or a[i] over pure operands
// (in the monitored pass, only a local or a parameter). The closure
// keeps the generic lowering's order — the right side, then the target —
// its errors and its charge: pure operands are static and evaluate to
// the same values for the load as for the store.
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
	// slot >= 0: a local or parameter; else ref is the target, and lc and
	// sc are what the walker charges for loading and storing it.
	slot, lc, sc := int32(-1), int64(CostExpr), int64(0)
	var ref func(*Frame) *Value
	switch t := x.LHS.(type) {
	case *ast.Ident:
		switch {
		case t.Sym == ast.SymLocal || t.Sym == ast.SymParam:
			slot = t.Slot
		case t.Sym == ast.SymField && !c.mon:
			fs := t.Slot
			ref = func(fr *Frame) *Value { return &fr.this.Slots[fs] }
		default:
			return nil
		}
	case *ast.FieldAccess:
		if c.mon || !ast.Pure(t.X) {
			return nil
		}
		b := c.value(t.X)
		if b.dyn {
			return nil
		}
		bf, fs, load := b.fn, t.Slot, op != 0
		ref = func(fr *Frame) *Value {
			if load {
				return &object(bf(fr), t).Slots[fs]
			}
			return &storeObject(bf(fr), t).Slots[fs]
		}
		lc, sc = CostExpr+b.cost, b.cost
	case *ast.IndexExpr:
		if c.mon || !ast.Pure(t.X) || !ast.Pure(t.Index) {
			return nil
		}
		a, j := c.value(t.X), c.value(t.Index)
		if a.dyn || j.dyn {
			return nil
		}
		af, jf, load := a.fn, j.fn, op != 0
		ref = func(fr *Frame) *Value {
			if load {
				arr, i := loadAt(af(fr), jf(fr), t)
				return &arr.Elems[i]
			}
			arr, i := storeAt(af(fr), jf(fr), t)
			return &arr.Elems[i]
		}
		lc, sc = CostExpr+a.cost+j.cost, a.cost+j.cost
	default:
		return nil
	}
	if op == 0 {
		lc = 0
	}
	if k == KInt {
		rf, entry := fusedRHS(c.int(x.RHS), lc+sc)
		if ref == nil {
			return func(fr *Frame) flow {
				fr.ctx.tick(entry)
				v := rf(fr)
				if op != 0 {
					v = apply(op, int64(fr.vars[slot].num), v)
				}
				fr.vars[slot] = IntValue(v)
				return flowNext
			}
		}
		return func(fr *Frame) flow {
			fr.ctx.tick(entry)
			v := rf(fr)
			p := ref(fr)
			if op != 0 {
				v = apply(op, int64(p.num), v)
			}
			*p = IntValue(v)
			return flowNext
		}
	}
	rf, entry := fusedRHS(c.float(x.RHS), lc+sc)
	if ref == nil {
		return func(fr *Frame) flow {
			fr.ctx.tick(entry)
			v := rf(fr)
			if op != 0 {
				v = apply(op, math.Float64frombits(fr.vars[slot].num), v)
			}
			fr.vars[slot] = FloatValue(v)
			return flowNext
		}
	}
	return func(fr *Frame) flow {
		fr.ctx.tick(entry)
		v := rf(fr)
		p := ref(fr)
		if op != 0 {
			v = apply(op, math.Float64frombits(p.num), v)
		}
		*p = FloatValue(v)
		return flowNext
	}
}

// fusedRHS is a fused assignment's right side and prologue charge: post
// is what loading and storing the target charge after it.
func fusedRHS[T any](rhs code[T], post int64) (func(*Frame) T, int64) {
	if !rhs.dyn {
		return rhs.fn, CostStmt + CostExpr + rhs.cost + post
	}
	f := rhs.fn
	return func(fr *Frame) T {
		fr.ctx.charge(CostExpr)
		v := f(fr)
		fr.ctx.charge(post)
		return v
	}, CostStmt
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
// once (the walker's countedLoop is the same test); the run-time half —
// an int loop variable and an int bound — is checked before the loop is
// offered to the ForLoop dispatcher. An
// offered loop is also registered in c.loops, slot and compiled body, so
// RunLoopIteration executes parallel iterations without matching again.
func (c *compiler) compileFor(st *ast.ForStmt, ms *methodSlots) stmtFn {
	var initFn stmtFn
	if st.Init != nil {
		initFn = c.compileStmt(st.Init, ms)
	}
	cond := code[bool]{fn: func(*Frame) bool { return true }}
	if st.Cond != nil {
		cond = c.bool(st.Cond)
	}
	cf, cc := cond.fn, cond.cost
	bodyFn := c.compileStmt(st.Body, ms)
	var postFn stmtFn
	if st.Post != nil {
		postFn = c.compileStmt(st.Post, ms)
	}
	h, matched := ast.MatchCountedLoop(st)
	matched = matched && ast.Pure(h.Bound)
	var bound exprFn
	var slot int32
	if matched {
		slot, bound = h.Var.Slot, c.value(h.Bound).sealed()
		c.loops[st] = loopBody{slot: slot, body: bodyFn}
	}
	step := h.Step
	return func(fr *Frame) flow {
		ctx := fr.ctx
		ctx.tick(CostStmt)
		if initFn != nil {
			if fl := initFn(fr); fl != flowNext {
				return fl
			}
		}
		if ctx.ForLoop != nil && matched && fr.vars[slot].kind == KInt {
			from := fr.vars[slot].Int()
			// A non-int bound declines the offer. A failing one fails as
			// the walker's serial loop then fails: its condition reads
			// the same pure bound right after.
			if to := bound(fr); to.kind == KInt {
				handled, err := ctx.ForLoop(st, fr, from, to.Int(), step)
				if err != nil {
					throw(err)
				}
				if handled {
					fr.vars[slot] = IntValue(rtkit.LoopExit(from, to.Int(), step))
					return flowNext
				}
			}
		}
		for ctx.charge(cc); cf(fr); ctx.charge(cc) {
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
