package interp

// Closure compilation: each resolved method body is lowered once per
// program to a tree of closures, so steady-state execution never
// type-switches on AST nodes. The lowering happens inside
// buildResolution, under the same lock and cache as slot resolution.
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
// piecewise in walker order. Every statement opens with Ctx.stmt, which
// counts it and charges its units; statements are never coalesced, so
// MaxSteps budgets and Interrupt polling behave identically under both
// engines.
// Operator kernels are picked by static type (kernel), and a call enters
// its callee's body directly (compileCall).

import (
	"math"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
	"commute/rtkit"
)

// exprFn evaluates an expression against a frame.
type exprFn func(fr *Frame) (Value, error)

// stmtFn executes a statement against a frame; flowReturn means a
// return statement executed and the value is in fr.ret.
type stmtFn func(fr *Frame) (flow, error)

// storeFn writes a value to a compiled lvalue.
type storeFn func(fr *Frame, v Value) error

type flow uint8

const (
	flowNext flow = iota
	flowReturn
)

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
	// (mon=false) emits exactly the closures it always did: zero added
	// branches on the hot path. Cost sealing is identical in both
	// passes, so traces stay bit-for-bit comparable.
	mon bool
	// loops receives the offered counted loops for RunLoopIteration
	// (res.loopBodies or res.loopBodiesMon, per pass).
	loops map[*ast.ForStmt]loopBody
	// methods is the pass's table, indexed by types.Method.ID: a call
	// site enters its callee's body of the same pass.
	methods []*compiledMethod
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
		methods: make([]*compiledMethod, len(r.prog.Methods))}
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

// seal wraps a non-self-charging closure with its subtree's total cost.
func seal(fn exprFn, cost int64) exprFn {
	if cost == 0 {
		return fn
	}
	return func(fr *Frame) (Value, error) {
		fr.ctx.charge(cost)
		return fn(fr)
	}
}

// sealedExpr compiles e to a self-contained closure that charges its
// own subtree cost.
func (c *compiler) sealedExpr(e ast.Expr) exprFn {
	fn, cost, dyn := c.compileExpr(e)
	if dyn {
		return fn
	}
	return seal(fn, cost)
}

// compileExpr lowers an expression. The returned closure either
// charges nothing itself (dyn=false; the caller accounts the returned
// static cost, which equals the walker's total charge for the subtree)
// or is fully self-charging (dyn=true; cost is zero).
func (c *compiler) compileExpr(e ast.Expr) (exprFn, int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		v := IntValue(x.Value)
		return func(fr *Frame) (Value, error) { return v, nil }, CostExpr, false
	case *ast.FloatLit:
		v := FloatValue(x.Value)
		return func(fr *Frame) (Value, error) { return v, nil }, CostExpr, false
	case *ast.BoolLit:
		v := BoolValue(x.Value)
		return func(fr *Frame) (Value, error) { return v, nil }, CostExpr, false
	case *ast.NullLit:
		return func(fr *Frame) (Value, error) { return Value{}, nil }, CostExpr, false
	case *ast.StringLit:
		v := StringValue(x.Value)
		return func(fr *Frame) (Value, error) { return v, nil }, CostExpr, false
	case *ast.ThisExpr:
		return func(fr *Frame) (Value, error) { return ObjectValue(fr.this), nil }, CostExpr, false

	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			slot := x.Slot
			return func(fr *Frame) (Value, error) { return fr.vars[slot], nil }, CostExpr, false
		case ast.SymConst:
			v := c.res.consts[x.Slot]
			return func(fr *Frame) (Value, error) { return v, nil }, CostExpr, false
		case ast.SymGlobal:
			slot := x.Slot
			return func(fr *Frame) (Value, error) {
				return ObjectValue(fr.ctx.IP.globals[slot]), nil
			}, CostExpr, false
		case ast.SymField:
			// A compiled body's this is never nil (Interp.Call).
			slot := x.Slot
			if c.mon {
				return func(fr *Frame) (Value, error) {
					return fr.ctx.Mon.LoadField(fr.this, int(slot)), nil
				}, CostExpr, false
			}
			return func(fr *Frame) (Value, error) { return fr.this.Slots[slot], nil }, CostExpr, false
		}
		return c.errExpr("unresolved identifier %s at %s", x.Name, x.Pos())

	case *ast.FieldAccess:
		slot := x.Slot
		if c.mon {
			return c.unary1(x.X, func(fr *Frame, v Value) (Value, error) {
				if v.kind != KObject {
					return Value{}, fieldErr(v, x)
				}
				return fr.ctx.Mon.LoadField(v.ref.(*Object), int(slot)), nil
			})
		}
		return c.unary1(x.X, func(_ *Frame, v Value) (Value, error) {
			if v.kind != KObject {
				return Value{}, fieldErr(v, x)
			}
			return v.ref.(*Object).Slots[slot], nil
		})

	case *ast.IndexExpr:
		if c.mon {
			return c.compileIndexMon(x)
		}
		af, ac, ad := c.compileExpr(x.X)
		if jv, jc2, jok := c.leaf(x.Index); jok && !ad {
			return func(fr *Frame) (Value, error) {
				arrV, err := af(fr)
				if err != nil {
					return Value{}, err
				}
				return indexLoad(arrV, jv(fr), x)
			}, CostExpr + ac + jc2, false
		}
		jf, jc, jd := c.compileExpr(x.Index)
		if !ad && !jd {
			return func(fr *Frame) (Value, error) {
				arrV, err := af(fr)
				if err != nil {
					return Value{}, err
				}
				idxV, err := jf(fr)
				if err != nil {
					return Value{}, err
				}
				return indexLoad(arrV, idxV, x)
			}, CostExpr + ac + jc, false
		}
		as, js := sealIf(af, ac, ad), sealIf(jf, jc, jd)
		return func(fr *Frame) (Value, error) {
			fr.ctx.charge(CostExpr)
			arrV, err := as(fr)
			if err != nil {
				return Value{}, err
			}
			idxV, err := js(fr)
			if err != nil {
				return Value{}, err
			}
			return indexLoad(arrV, idxV, x)
		}, 0, true

	case *ast.CallExpr:
		return c.compileCall(x)

	case *ast.NewExpr:
		cl := c.res.classList[x.ClassIdx]
		return func(fr *Frame) (Value, error) {
			return ObjectValue(fr.ctx.IP.NewObject(cl)), nil
		}, CostExpr + CostAlloc, false

	case *ast.CastExpr:
		return c.unary1(x.X, func(_ *Frame, v Value) (Value, error) {
			return castValueClass(c.res.classList[x.ClassIdx], v, x)
		})

	case *ast.Unary:
		return c.unary1(x.X, func(_ *Frame, v Value) (Value, error) {
			return applyUnary(x, v)
		})

	case *ast.Binary:
		return c.compileBinary(x)

	case *ast.Assign:
		return c.compileAssign(x)
	}
	return c.errExpr("unsupported expression at %s", e.Pos())
}

// leaf compiles an expression whose evaluation can neither fail nor
// charge dynamically — literals, constants, this, local slots, this
// fields and global reads — to an infallible value producer. Fusing
// leaves into the parent operator's closure removes an indirect call
// and an error check per operand on the hottest paths.
func (c *compiler) leaf(e ast.Expr) (func(fr *Frame) Value, int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		v := IntValue(x.Value)
		return func(fr *Frame) Value { return v }, CostExpr, true
	case *ast.FloatLit:
		v := FloatValue(x.Value)
		return func(fr *Frame) Value { return v }, CostExpr, true
	case *ast.BoolLit:
		v := BoolValue(x.Value)
		return func(fr *Frame) Value { return v }, CostExpr, true
	case *ast.NullLit:
		return func(fr *Frame) Value { return Value{} }, CostExpr, true
	case *ast.StringLit:
		v := StringValue(x.Value)
		return func(fr *Frame) Value { return v }, CostExpr, true
	case *ast.ThisExpr:
		return func(fr *Frame) Value { return ObjectValue(fr.this) }, CostExpr, true
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			slot := x.Slot
			return func(fr *Frame) Value { return fr.vars[slot] }, CostExpr, true
		case ast.SymConst:
			v := c.res.consts[x.Slot]
			return func(fr *Frame) Value { return v }, CostExpr, true
		case ast.SymGlobal:
			slot := x.Slot
			return func(fr *Frame) Value {
				return ObjectValue(fr.ctx.IP.globals[slot])
			}, CostExpr, true
		case ast.SymField:
			slot := x.Slot
			if c.mon {
				return func(fr *Frame) Value { return fr.ctx.Mon.LoadField(fr.this, int(slot)) }, CostExpr, true
			}
			return func(fr *Frame) Value { return fr.this.Slots[slot] }, CostExpr, true
		}
	}
	return nil, 0, false
}

// unary1 composes a single compiled child with a kernel.
func (c *compiler) unary1(child ast.Expr, k func(*Frame, Value) (Value, error)) (exprFn, int64, bool) {
	xf, xc, xd := c.compileExpr(child)
	if !xd {
		return func(fr *Frame) (Value, error) {
			v, err := xf(fr)
			if err != nil {
				return Value{}, err
			}
			return k(fr, v)
		}, CostExpr + xc, false
	}
	return func(fr *Frame) (Value, error) {
		fr.ctx.charge(CostExpr)
		v, err := xf(fr)
		if err != nil {
			return Value{}, err
		}
		return k(fr, v)
	}, 0, true
}

func fieldErr(v Value, x *ast.FieldAccess) error {
	if v.kind == KNull {
		return rtErrf(errNullDeref, x.Pos())
	}
	return rtErrf(errFieldNonObj, x.Pos())
}

// compileIndexMon mirrors the three fused IndexExpr load forms with the
// element read routed through the monitor (same fusion, same costs).
func (c *compiler) compileIndexMon(x *ast.IndexExpr) (exprFn, int64, bool) {
	af, ac, ad := c.compileExpr(x.X)
	if jv, jc2, jok := c.leaf(x.Index); jok && !ad {
		return func(fr *Frame) (Value, error) {
			arrV, err := af(fr)
			if err != nil {
				return Value{}, err
			}
			return indexLoadMon(fr.ctx.Mon, arrV, jv(fr), x)
		}, CostExpr + ac + jc2, false
	}
	jf, jc, jd := c.compileExpr(x.Index)
	if !ad && !jd {
		return func(fr *Frame) (Value, error) {
			arrV, err := af(fr)
			if err != nil {
				return Value{}, err
			}
			idxV, err := jf(fr)
			if err != nil {
				return Value{}, err
			}
			return indexLoadMon(fr.ctx.Mon, arrV, idxV, x)
		}, CostExpr + ac + jc, false
	}
	as, js := sealIf(af, ac, ad), sealIf(jf, jc, jd)
	return func(fr *Frame) (Value, error) {
		fr.ctx.charge(CostExpr)
		arrV, err := as(fr)
		if err != nil {
			return Value{}, err
		}
		idxV, err := js(fr)
		if err != nil {
			return Value{}, err
		}
		return indexLoadMon(fr.ctx.Mon, arrV, idxV, x)
	}, 0, true
}

func (c *compiler) errExpr(format string, args ...any) (exprFn, int64, bool) {
	err := rtErrf(format, args...)
	return func(fr *Frame) (Value, error) { return Value{}, err }, CostExpr, false
}

// sealIf seals a closure when it is not already self-charging.
func sealIf(fn exprFn, cost int64, dyn bool) exprFn {
	if dyn {
		return fn
	}
	return seal(fn, cost)
}

func (c *compiler) compileBinary(x *ast.Binary) (exprFn, int64, bool) {
	// Short-circuit operators are inherently dynamic: the right operand
	// charges only when it evaluates, exactly as in the walker.
	if x.Op == token.AND || x.Op == token.OR {
		xs := c.sealedExpr(x.X)
		ys := c.sealedExpr(x.Y)
		isAnd := x.Op == token.AND
		return func(fr *Frame) (Value, error) {
			fr.ctx.charge(CostExpr)
			l, err := xs(fr)
			if err != nil {
				return Value{}, err
			}
			lb, err := truthy(l)
			if err != nil {
				return Value{}, err
			}
			if isAnd && !lb {
				return BoolValue(false), nil
			}
			if !isAnd && lb {
				return BoolValue(true), nil
			}
			r, err := ys(fr)
			if err != nil {
				return Value{}, err
			}
			return truthyVal(r)
		}, 0, true
	}

	op := kernel(x.Op, c.kindOf(x.X), c.kindOf(x.Y))
	if op == nil {
		op = func(l, r Value) (Value, error) { return applyBinary(x, l, r) }
	}
	// Leaf operands fuse into the operator closure. Evaluation order is
	// preserved: the left operand is always materialized before any part
	// of the right evaluates (the right side may contain an assignment
	// that mutates what the left side reads).
	lv, lc2, lok := c.leaf(x.X)
	rv, rc2, rok := c.leaf(x.Y)
	if lok && rok {
		return func(fr *Frame) (Value, error) {
			l := lv(fr)
			return op(l, rv(fr))
		}, CostExpr + lc2 + rc2, false
	}
	xf, xc, xd := c.compileExpr(x.X)
	if rok && !xd {
		return func(fr *Frame) (Value, error) {
			l, err := xf(fr)
			if err != nil {
				return Value{}, err
			}
			return op(l, rv(fr))
		}, CostExpr + xc + rc2, false
	}
	yf, yc, yd := c.compileExpr(x.Y)
	if lok && !yd {
		return func(fr *Frame) (Value, error) {
			l := lv(fr)
			r, err := yf(fr)
			if err != nil {
				return Value{}, err
			}
			return op(l, r)
		}, CostExpr + lc2 + yc, false
	}
	if !xd && !yd {
		return func(fr *Frame) (Value, error) {
			l, err := xf(fr)
			if err != nil {
				return Value{}, err
			}
			r, err := yf(fr)
			if err != nil {
				return Value{}, err
			}
			return op(l, r)
		}, CostExpr + xc + yc, false
	}
	xs, ys := sealIf(xf, xc, xd), sealIf(yf, yc, yd)
	return func(fr *Frame) (Value, error) {
		fr.ctx.charge(CostExpr)
		l, err := xs(fr)
		if err != nil {
			return Value{}, err
		}
		r, err := ys(fr)
		if err != nil {
			return Value{}, err
		}
		return op(l, r)
	}, 0, true
}

// kindOf is e's checked type where every value e yields has that kind.
// Every store coerces to its checked type, and the checker rejects a
// non-void body that can fall off its end, so a call yields its
// method's return type too. That is every expression but an
// assignment — its value is the right-hand side as computed — and
// arithmetic over one.
func (c *compiler) kindOf(e ast.Expr) types.Type {
	switch x := e.(type) {
	case *ast.Assign:
		return nil
	case *ast.Unary:
		if x.Op == token.MINUS && c.kindOf(x.X) == nil {
			return nil
		}
	case *ast.Binary:
		switch x.Op {
		case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
			if c.kindOf(x.X) == nil || c.kindOf(x.Y) == nil {
				return nil
			}
		}
	}
	return c.prog.TypeOf(e)
}

// kernel is the strict operator op (binary, or compound assignment) on
// operands of the static types lt and rt, reading the payloads without
// a kind test: the int side of a mixed pair converts as asFloat
// converts it, and == / != compare numbers as valueEqual does. It is
// nil — the caller keeps the walker's kernel — for int / and %
// (division by zero), equality on non-numbers, and unknown kinds.
func kernel(op token.Kind, lt, rt types.Type) func(l, r Value) (Value, error) {
	li, ri := lt == types.Int, rt == types.Int
	if li && ri {
		switch op {
		case token.PLUS, token.PLUSEQ:
			return func(l, r Value) (Value, error) { return IntValue(int64(l.num) + int64(r.num)), nil }
		case token.MINUS, token.MINUSEQ:
			return func(l, r Value) (Value, error) { return IntValue(int64(l.num) - int64(r.num)), nil }
		case token.STAR, token.STAREQ:
			return func(l, r Value) (Value, error) { return IntValue(int64(l.num) * int64(r.num)), nil }
		case token.LT:
			return func(l, r Value) (Value, error) { return BoolValue(int64(l.num) < int64(r.num)), nil }
		case token.LEQ:
			return func(l, r Value) (Value, error) { return BoolValue(int64(l.num) <= int64(r.num)), nil }
		case token.GT:
			return func(l, r Value) (Value, error) { return BoolValue(int64(l.num) > int64(r.num)), nil }
		case token.GEQ:
			return func(l, r Value) (Value, error) { return BoolValue(int64(l.num) >= int64(r.num)), nil }
		}
	}
	if !types.IsNumeric(lt) || !types.IsNumeric(rt) || li && ri && op != token.EQ && op != token.NEQ {
		return nil
	}
	switch op {
	case token.PLUS, token.PLUSEQ:
		return func(l, r Value) (Value, error) { return FloatValue(flt(l, li) + flt(r, ri)), nil }
	case token.MINUS, token.MINUSEQ:
		return func(l, r Value) (Value, error) { return FloatValue(flt(l, li) - flt(r, ri)), nil }
	case token.STAR, token.STAREQ:
		return func(l, r Value) (Value, error) { return FloatValue(flt(l, li) * flt(r, ri)), nil }
	case token.SLASH, token.SLASHEQ:
		return func(l, r Value) (Value, error) { return FloatValue(flt(l, li) / flt(r, ri)), nil }
	case token.LT:
		return func(l, r Value) (Value, error) { return BoolValue(flt(l, li) < flt(r, ri)), nil }
	case token.LEQ:
		return func(l, r Value) (Value, error) { return BoolValue(flt(l, li) <= flt(r, ri)), nil }
	case token.GT:
		return func(l, r Value) (Value, error) { return BoolValue(flt(l, li) > flt(r, ri)), nil }
	case token.GEQ:
		return func(l, r Value) (Value, error) { return BoolValue(flt(l, li) >= flt(r, ri)), nil }
	case token.EQ:
		return func(l, r Value) (Value, error) { return BoolValue(flt(l, li) == flt(r, ri)), nil }
	case token.NEQ:
		return func(l, r Value) (Value, error) { return BoolValue(flt(l, li) != flt(r, ri)), nil }
	}
	return nil
}

// flt reads a number whose kind is fixed: an int converts as asFloat
// converts it.
func flt(v Value, isInt bool) float64 {
	if isInt {
		return float64(int64(v.num))
	}
	return math.Float64frombits(v.num)
}

// castValueClass is castValue with the target class pre-resolved.
func castValueClass(target *types.Class, v Value, x *ast.CastExpr) (Value, error) {
	if v.kind == KNull {
		return Value{}, nil
	}
	if v.kind != KObject {
		return Value{}, rtErrf(errCastNonObj, x.Pos())
	}
	if v.ref.(*Object).Class.InheritsFrom(target) {
		return v, nil
	}
	return Value{}, nil
}

func (c *compiler) compileAssign(x *ast.Assign) (exprFn, int64, bool) {
	rf, rc, rd := c.compileExpr(x.RHS)
	compound := x.Op != token.ASSIGN

	// Plain assignment into a local or parameter slot fuses the store
	// into the expression closure: no storeFn indirection on the single
	// hottest statement shape.
	if id, ok := x.LHS.(*ast.Ident); ok && !compound && !rd &&
		(id.Sym == ast.SymLocal || id.Sym == ast.SymParam) {
		slot := id.Slot
		co := id.Coerce
		if co == ast.CoNone {
			return func(fr *Frame) (Value, error) {
				v, err := rf(fr)
				if err != nil {
					return Value{}, err
				}
				fr.vars[slot] = v
				return v, nil
			}, CostExpr + rc, false
		}
		return func(fr *Frame) (Value, error) {
			v, err := rf(fr)
			if err != nil {
				return Value{}, err
			}
			fr.vars[slot] = coerceKind(co, v)
			return v, nil
		}, CostExpr + rc, false
	}

	// Same fusion for implicit this-field stores.
	if id, ok := x.LHS.(*ast.Ident); ok && !compound && !rd && id.Sym == ast.SymField {
		slot := id.Slot
		co := id.Coerce
		if c.mon {
			return func(fr *Frame) (Value, error) {
				v, err := rf(fr)
				if err != nil {
					return Value{}, err
				}
				fr.ctx.Mon.StoreField(fr.this, int(slot), coerceKind(co, v))
				return v, nil
			}, CostExpr + rc, false
		}
		return func(fr *Frame) (Value, error) {
			v, err := rf(fr)
			if err != nil {
				return Value{}, err
			}
			fr.this.Slots[slot] = coerceKind(co, v)
			return v, nil
		}, CostExpr + rc, false
	}
	var lf exprFn
	var lc int64
	var ld bool
	var op func(l, r Value) (Value, error)
	if compound {
		lf, lc, ld = c.compileExpr(x.LHS)
		if op = kernel(x.Op, c.kindOf(x.LHS), c.kindOf(x.RHS)); op == nil {
			op = func(l, r Value) (Value, error) { return applyCompound(x, l, r) }
		}
	}
	sf, sc, sd := c.compileStore(x.LHS)

	if !rd && !ld && !sd {
		return func(fr *Frame) (Value, error) {
			rhs, err := rf(fr)
			if err != nil {
				return Value{}, err
			}
			if compound {
				old, err := lf(fr)
				if err != nil {
					return Value{}, err
				}
				rhs, err = op(old, rhs)
				if err != nil {
					return Value{}, err
				}
			}
			if err := sf(fr, rhs); err != nil {
				return Value{}, err
			}
			return rhs, nil
		}, CostExpr + rc + lc + sc, false
	}

	rs := sealIf(rf, rc, rd)
	var ls exprFn
	if compound {
		ls = sealIf(lf, lc, ld)
	}
	ss := sealStore(sf, sc, sd)
	return func(fr *Frame) (Value, error) {
		fr.ctx.charge(CostExpr)
		rhs, err := rs(fr)
		if err != nil {
			return Value{}, err
		}
		if compound {
			old, err := ls(fr)
			if err != nil {
				return Value{}, err
			}
			rhs, err = op(old, rhs)
			if err != nil {
				return Value{}, err
			}
		}
		if err := ss(fr, rhs); err != nil {
			return Value{}, err
		}
		return rhs, nil
	}, 0, true
}

func sealStore(fn storeFn, cost int64, dyn bool) storeFn {
	if dyn || cost == 0 {
		return fn
	}
	return func(fr *Frame, v Value) error {
		fr.ctx.charge(cost)
		return fn(fr, v)
	}
}

// compileStore lowers an lvalue to a store closure. The walker charges
// only for the lvalue's subexpressions (the target node itself is
// free), and the same convention applies here.
func (c *compiler) compileStore(lhs ast.Expr) (storeFn, int64, bool) {
	switch x := lhs.(type) {
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			slot := x.Slot
			co := x.Coerce
			if co == ast.CoNone {
				return func(fr *Frame, v Value) error {
					fr.vars[slot] = v
					return nil
				}, 0, false
			}
			return func(fr *Frame, v Value) error {
				fr.vars[slot] = coerceKind(co, v)
				return nil
			}, 0, false
		case ast.SymField:
			slot := x.Slot
			co := x.Coerce
			if c.mon {
				return func(fr *Frame, v Value) error {
					fr.ctx.Mon.StoreField(fr.this, int(slot), coerceKind(co, v))
					return nil
				}, 0, false
			}
			return func(fr *Frame, v Value) error {
				fr.this.Slots[slot] = coerceKind(co, v)
				return nil
			}, 0, false
		}
		err := rtErrf("cannot assign to %s", x.Name)
		return func(fr *Frame, v Value) error { return err }, 0, false

	case *ast.FieldAccess:
		xf, xc, xd := c.compileExpr(x.X)
		slot := x.Slot
		co := x.Coerce
		if xd {
			xf = sealIf(xf, xc, xd)
			xc = 0
		}
		if c.mon {
			return func(fr *Frame, v Value) error {
				base, err := xf(fr)
				if err != nil {
					return err
				}
				if base.kind != KObject {
					return rtErrf(errFieldStoreObj, x.Pos())
				}
				fr.ctx.Mon.StoreField(base.ref.(*Object), int(slot), coerceKind(co, v))
				return nil
			}, xc, xd
		}
		return func(fr *Frame, v Value) error {
			base, err := xf(fr)
			if err != nil {
				return err
			}
			if base.kind != KObject {
				return rtErrf(errFieldStoreObj, x.Pos())
			}
			base.ref.(*Object).Slots[slot] = coerceKind(co, v)
			return nil
		}, xc, xd

	case *ast.IndexExpr:
		af, ac, ad := c.compileExpr(x.X)
		jf, jc, jd := c.compileExpr(x.Index)
		dyn := ad || jd
		if dyn {
			af, jf = sealIf(af, ac, ad), sealIf(jf, jc, jd)
			ac, jc = 0, 0
		}
		if c.mon {
			return func(fr *Frame, v Value) error {
				arrV, err := af(fr)
				if err != nil {
					return err
				}
				idxV, err := jf(fr)
				if err != nil {
					return err
				}
				return indexStoreMon(fr.ctx.Mon, arrV, idxV, v, x)
			}, ac + jc, dyn
		}
		return func(fr *Frame, v Value) error {
			arrV, err := af(fr)
			if err != nil {
				return err
			}
			idxV, err := jf(fr)
			if err != nil {
				return err
			}
			return indexStore(arrV, idxV, v, x)
		}, ac + jc, dyn
	}
	err := rtErrf("unsupported assignment target at %s", lhs.Pos())
	return func(fr *Frame, v Value) error { return err }, 0, false
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

func (c *compiler) compileCall(x *ast.CallExpr) (exprFn, int64, bool) {
	if x.Builtin {
		// Math builtins with statically-charged arguments fold into the
		// enclosing subtree: builtins never reach a dispatcher hook, so
		// their whole cost (args + CostBuiltin) is static.
		if mf, ok := builtin1(x.Method); ok && len(x.Args) == 1 {
			af, ac, ad := c.compileExpr(x.Args[0])
			if !ad {
				return func(fr *Frame) (Value, error) {
					v, err := af(fr)
					if err != nil {
						return Value{}, err
					}
					f, _ := asFloat(v)
					return FloatValue(mf(f)), nil
				}, CostExpr + ac + CostBuiltin, false
			}
			return func(fr *Frame) (Value, error) {
				fr.ctx.charge(CostExpr)
				v, err := af(fr)
				if err != nil {
					return Value{}, err
				}
				fr.ctx.charge(CostBuiltin)
				f, _ := asFloat(v)
				return FloatValue(mf(f)), nil
			}, 0, true
		}
		if x.Method == "pow" && len(x.Args) == 2 {
			af, ac, ad := c.compileExpr(x.Args[0])
			bf, bc, bd := c.compileExpr(x.Args[1])
			if !ad && !bd {
				return func(fr *Frame) (Value, error) {
					v1, err := af(fr)
					if err != nil {
						return Value{}, err
					}
					v2, err := bf(fr)
					if err != nil {
						return Value{}, err
					}
					f1, _ := asFloat(v1)
					f2, _ := asFloat(v2)
					return FloatValue(math.Pow(f1, f2)), nil
				}, CostExpr + ac + bc + CostBuiltin, false
			}
			as, bs := sealIf(af, ac, ad), sealIf(bf, bc, bd)
			return func(fr *Frame) (Value, error) {
				fr.ctx.charge(CostExpr)
				v1, err := as(fr)
				if err != nil {
					return Value{}, err
				}
				v2, err := bs(fr)
				if err != nil {
					return Value{}, err
				}
				fr.ctx.charge(CostBuiltin)
				f1, _ := asFloat(v1)
				f2, _ := asFloat(v2)
				return FloatValue(math.Pow(f1, f2)), nil
			}, 0, true
		}
		// Generic builtin path (print, arity oddities, unknown names):
		// evaluate arguments into a slice and dispatch by name, exactly
		// like the walker.
		argFns := make([]exprFn, len(x.Args))
		for i, a := range x.Args {
			argFns[i] = c.sealedExpr(a)
		}
		name := x.Method
		return func(fr *Frame) (Value, error) {
			fr.ctx.charge(CostExpr)
			args := make([]Value, len(argFns))
			for i, af := range argFns {
				v, err := af(fr)
				if err != nil {
					return Value{}, err
				}
				args[i] = v
			}
			fr.ctx.charge(CostBuiltin)
			return callBuiltin(fr.ctx.IP, name, x, args)
		}, 0, true
	}

	site := c.prog.CallSites[x.Site]
	callee := site.Callee
	implicitRecv := x.Recv == nil && callee.Class != nil
	var recvFn exprFn
	if x.Recv != nil {
		recvFn = c.sealedExpr(x.Recv)
	}
	argFns := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		argFns[i] = c.sealedExpr(a)
	}
	n := len(argFns)
	ms, cm := c.res.methods[callee.ID], c.methods[callee.ID]
	return func(fr *Frame) (Value, error) {
		ctx := fr.ctx
		ctx.charge(CostExpr)
		var recv *Object
		if recvFn != nil {
			rv, err := recvFn(fr)
			if err != nil {
				return Value{}, err
			}
			if rv.kind != KObject {
				if rv.kind == KNull {
					return Value{}, rtErrf(errCallOnNull, x.Pos())
				}
				return Value{}, rtErrf(errCallNonObj, x.Pos())
			}
			recv = rv.ref.(*Object)
		} else if implicitRecv {
			recv = fr.this
		}
		// The arguments go straight into the callee's frame. A hook gets
		// them as a slice of it, which is popped when the hook returns.
		nf := ctx.pushFrame(ms.n)
		for i, af := range argFns {
			v, err := af(fr)
			if err != nil {
				ctx.popFrame()
				return Value{}, err
			}
			nf.vars[i] = coerceKind(ms.paramCo[i], v)
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
		ctx.popFrame()
		return v, err
	}, 0, true
}

// compileStmt lowers a statement to a self-contained closure. Each
// statement's prologue (Ctx.stmt) counts one step and charges CostStmt
// plus the static cost of its call-free expression operands up front —
// preserving the walker's MaxSteps and Interrupt behavior exactly.
func (c *compiler) compileStmt(s ast.Stmt, ms *methodSlots) stmtFn {
	switch st := s.(type) {
	case *ast.Block:
		subs := make([]stmtFn, len(st.Stmts))
		for i, sub := range st.Stmts {
			subs[i] = c.compileStmt(sub, ms)
		}
		return func(fr *Frame) (flow, error) {
			if err := fr.ctx.stmt(CostStmt); err != nil {
				return flowNext, err
			}
			for _, sub := range subs {
				fl, err := sub(fr)
				if fl != flowNext || err != nil {
					return fl, err
				}
			}
			return flowNext, nil
		}

	case *ast.DeclStmt:
		slot := int(st.Slot)
		t := ms.types[slot]
		// Primitive zero values are constants; object/array-typed
		// declarations allocate fresh storage per execution, exactly as
		// the walker's zeroValue does.
		zc, constZero := primZero(t)
		if st.Init == nil {
			return func(fr *Frame) (flow, error) {
				if err := fr.ctx.stmt(CostStmt); err != nil {
					return flowNext, err
				}
				if constZero {
					fr.vars[slot] = zc
				} else {
					fr.vars[slot] = fr.ctx.IP.zeroValue(t)
				}
				return flowNext, nil
			}
		}
		inf, ic, id := c.compileExpr(st.Init)
		co := st.Coerce
		entry := int64(CostStmt)
		if !id {
			entry += ic
		}
		return func(fr *Frame) (flow, error) {
			if err := fr.ctx.stmt(entry); err != nil {
				return flowNext, err
			}
			if constZero {
				fr.vars[slot] = zc
			} else {
				fr.vars[slot] = fr.ctx.IP.zeroValue(t)
			}
			v, err := inf(fr)
			if err != nil {
				return flowNext, err
			}
			fr.vars[slot] = coerceKind(co, v)
			return flowNext, nil
		}

	case *ast.ExprStmt:
		xf, xc, xd := c.compileExpr(st.X)
		entry := int64(CostStmt)
		if !xd {
			entry += xc
		}
		return func(fr *Frame) (flow, error) {
			if err := fr.ctx.stmt(entry); err != nil {
				return flowNext, err
			}
			_, err := xf(fr)
			return flowNext, err
		}

	case *ast.IfStmt:
		cf, cc, cd := c.compileExpr(st.Cond)
		entry := int64(CostStmt)
		if !cd {
			entry += cc
		}
		thenFn := c.compileStmt(st.Then, ms)
		var elseFn stmtFn
		if st.Else != nil {
			elseFn = c.compileStmt(st.Else, ms)
		}
		return func(fr *Frame) (flow, error) {
			if err := fr.ctx.stmt(entry); err != nil {
				return flowNext, err
			}
			cv, err := cf(fr)
			if err != nil {
				return flowNext, err
			}
			b, err := truthy(cv)
			if err != nil {
				return flowNext, err
			}
			if b {
				return thenFn(fr)
			}
			if elseFn != nil {
				return elseFn(fr)
			}
			return flowNext, nil
		}

	case *ast.ForStmt:
		return c.compileFor(st, ms)

	case *ast.WhileStmt:
		condS := c.sealedExpr(st.Cond)
		bodyFn := c.compileStmt(st.Body, ms)
		return func(fr *Frame) (flow, error) {
			if err := fr.ctx.stmt(CostStmt); err != nil {
				return flowNext, err
			}
			for {
				cv, err := condS(fr)
				if err != nil {
					return flowNext, err
				}
				b, err := truthy(cv)
				if err != nil {
					return flowNext, err
				}
				if !b {
					return flowNext, nil
				}
				fl, err := bodyFn(fr)
				if fl != flowNext || err != nil {
					return fl, err
				}
			}
		}

	case *ast.ReturnStmt:
		if st.X == nil {
			return func(fr *Frame) (flow, error) {
				if err := fr.ctx.stmt(CostStmt); err != nil {
					return flowNext, err
				}
				fr.ret = Value{}
				return flowReturn, nil
			}
		}
		xf, xc, xd := c.compileExpr(st.X)
		entry := int64(CostStmt)
		if !xd {
			entry += xc
		}
		retCo := ms.retCo
		return func(fr *Frame) (flow, error) {
			if err := fr.ctx.stmt(entry); err != nil {
				return flowNext, err
			}
			v, err := xf(fr)
			if err != nil {
				return flowNext, err
			}
			fr.ret = coerceKind(retCo, v)
			return flowReturn, nil
		}
	}
	err := rtErrf("unsupported statement at %s", s.Pos())
	return func(fr *Frame) (flow, error) { return flowNext, err }
}

// compileFor lowers a for loop. The counted header is matched here,
// once (the walker's countedLoop is the same test); the run-time half —
// an int loop variable and an error-free int bound — is checked before
// the loop is offered to the ForLoop dispatcher. An offered loop is also
// registered in c.loops, slot and compiled body, so RunLoopIteration
// executes parallel iterations without matching again.
func (c *compiler) compileFor(st *ast.ForStmt, ms *methodSlots) stmtFn {
	var initFn stmtFn
	if st.Init != nil {
		initFn = c.compileStmt(st.Init, ms)
	}
	var condS exprFn
	if st.Cond != nil {
		condS = c.sealedExpr(st.Cond)
	}
	bodyFn := c.compileStmt(st.Body, ms)
	var postFn stmtFn
	if st.Post != nil {
		postFn = c.compileStmt(st.Post, ms)
	}
	h, matched := ast.MatchCountedLoop(st)
	matched = matched && ast.Pure(h.Bound)
	var boundS exprFn
	var slot int32
	if matched {
		slot, boundS = h.Var.Slot, c.sealedExpr(h.Bound)
		c.loops[st] = loopBody{slot: slot, body: bodyFn}
	}
	step := h.Step
	return func(fr *Frame) (flow, error) {
		ctx := fr.ctx
		if err := ctx.stmt(CostStmt); err != nil {
			return flowNext, err
		}
		if initFn != nil {
			fl, err := initFn(fr)
			if fl != flowNext || err != nil {
				return fl, err
			}
		}
		if ctx.ForLoop != nil && matched && fr.vars[slot].kind == KInt {
			from := fr.vars[slot].Int()
			bv, err := boundS(fr)
			// A failing or non-int bound declines the offer; the serial
			// loop below re-evaluates the condition and surfaces any
			// error itself, matching the walker.
			if err == nil && bv.kind == KInt {
				handled, err := ctx.ForLoop(st, fr, from, bv.Int(), step)
				if err != nil {
					return flowNext, err
				}
				if handled {
					fr.vars[slot] = IntValue(rtkit.LoopExit(from, bv.Int(), step))
					return flowNext, nil
				}
			}
		}
		for {
			if condS != nil {
				cv, err := condS(fr)
				if err != nil {
					return flowNext, err
				}
				b, err := truthy(cv)
				if err != nil {
					return flowNext, err
				}
				if !b {
					return flowNext, nil
				}
			}
			fl, err := bodyFn(fr)
			if fl != flowNext || err != nil {
				return fl, err
			}
			if postFn != nil {
				fl, err := postFn(fr)
				if fl != flowNext || err != nil {
					return fl, err
				}
			}
		}
	}
}
