package interp

import (
	"strconv"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
)

// Abstract cost units charged by the tree walker, the engine the tracer
// runs on; compiled code charges none. One unit corresponds to roughly
// one simple machine operation; the simulator converts units to
// microseconds with a calibration constant. Exported for codegen's
// static work estimate, which bounds what a serial execution charges
// with these same five numbers.
const (
	CostStmt    = 1
	CostExpr    = 1
	CostCall    = 8
	CostBuiltin = 12
	CostAlloc   = 40
)

// Error format strings shared by the walking and compiled engines, so
// differential tests can compare error classes byte for byte.
const (
	errDivZero        = "integer division by zero at %s"
	errModZero        = "integer modulo by zero at %s"
	errNonNumbers     = "arithmetic on non-numbers at %s"
	errBadBinary      = "bad binary operator at %s"
	errCompoundNonNum = "compound assignment on non-numbers at %s"
	errBadCompound    = "bad compound operator at %s"
	errUnaryNonNum    = "unary - on non-number at %s"
	errBadUnary       = "bad unary operator at %s"
	errNullDeref      = "NULL dereference at %s"
	errFieldNonObj    = "field access on non-object at %s"
	errIndexNonArr    = "indexing non-array at %s"
	errIndexNonInt    = "non-integer index at %s"
	errIndexRange     = "index %d out of range [0,%d) at %s"
	errFieldNoRecv    = "field %s accessed without a receiver"
	errFieldNoRecvWr  = "field %s written without a receiver"
	errCastNonObj     = "cast of non-object at %s"
	errCallOnNull     = "method call on NULL at %s"
	errCallNonObj     = "method call on non-object at %s"
	errCallNoRecv     = "%s called without a receiver"
	errCallArity      = "%s takes %d arguments, called with %d"
	errFieldStoreObj  = "field store on non-object at %s"
	errIndexStoreArr  = "index store on non-array at %s"
	errIndexStoreRng  = "index %v out of range at %s"
	errUnknownBuiltin = "unknown builtin %s"
)

func formatInt(v int64) string     { return strconv.FormatInt(v, 10) }
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// eval evaluates an expression to a value (tree-walking engine).
func (ip *Interp) eval(fr *Frame, e ast.Expr) (Value, error) {
	fr.ctx.charge(CostExpr)
	switch x := e.(type) {
	case *ast.IntLit:
		return IntValue(x.Value), nil
	case *ast.FloatLit:
		return FloatValue(x.Value), nil
	case *ast.BoolLit:
		return BoolValue(x.Value), nil
	case *ast.NullLit:
		return Value{}, nil
	case *ast.StringLit:
		return StringValue(x.Value), nil
	case *ast.ThisExpr:
		return ObjectValue(fr.this), nil

	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			return fr.vars[x.Slot], nil
		case ast.SymConst:
			return ip.code.consts[x.Slot], nil
		case ast.SymGlobal:
			return ObjectValue(ip.globals[x.Slot]), nil
		case ast.SymField:
			if fr.this == nil {
				return Value{}, rtErrf(errFieldNoRecv, x.Name)
			}
			if m := fr.ctx.Mon; m != nil {
				return m.LoadField(fr.this, int(x.Slot)), nil
			}
			return fr.this.Slots[x.Slot], nil
		}
		return Value{}, rtErrf("unresolved identifier %s at %s", x.Name, x.Pos())

	case *ast.FieldAccess:
		base, err := ip.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		if base.kind != KObject {
			return Value{}, fieldErr(base, x)
		}
		if m := fr.ctx.Mon; m != nil {
			return m.LoadField(base.ref.(*Object), int(x.Slot)), nil
		}
		return base.ref.(*Object).Slots[x.Slot], nil

	case *ast.IndexExpr:
		arrV, err := ip.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		idxV, err := ip.eval(fr, x.Index)
		if err != nil {
			return Value{}, err
		}
		arr, i, err := elemLoad(arrV, idxV, x)
		if err != nil {
			return Value{}, err
		}
		if m := fr.ctx.Mon; m != nil {
			return m.LoadElem(arr, i), nil
		}
		return arr.Elems[i], nil

	case *ast.CallExpr:
		return ip.evalCall(fr, x)

	case *ast.NewExpr:
		fr.ctx.charge(CostAlloc)
		return ObjectValue(ip.NewObject(ip.Prog.ClassList[x.ClassIdx])), nil

	case *ast.CastExpr:
		v, err := ip.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		return castValue(ip.Prog.ClassList[x.ClassIdx], v, x)

	case *ast.Unary:
		v, err := ip.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		return applyUnary(x, v)

	case *ast.Binary:
		return ip.evalBinary(fr, x)

	case *ast.Assign:
		return ip.evalAssign(fr, x)
	}
	return Value{}, rtErrf("unsupported expression at %s", e.Pos())
}

// elemLoad is an element read's checks, shared by both engines: the
// array x reads and the element's index.
func elemLoad(arrV, idxV Value, x *ast.IndexExpr) (*Array, int, error) {
	if arrV.kind != KArray {
		return nil, 0, rtErrf(errIndexNonArr, x.Pos())
	}
	if idxV.kind != KInt {
		return nil, 0, rtErrf(errIndexNonInt, x.Pos())
	}
	arr := arrV.ref.(*Array)
	i := int64(idxV.num)
	if i < 0 || int(i) >= len(arr.Elems) {
		return nil, 0, rtErrf(errIndexRange, i, len(arr.Elems), x.Pos())
	}
	return arr, int(i), nil
}

// castValue is the dynamic-cast kernel shared by both engines: a failed
// cast to target yields NULL, matching the dialect's checked downcasts.
func castValue(target *types.Class, v Value, x *ast.CastExpr) (Value, error) {
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

// applyUnary is the unary-operator kernel shared by both engines.
func applyUnary(x *ast.Unary, v Value) (Value, error) {
	switch x.Op {
	case token.MINUS:
		switch v.kind {
		case KInt:
			return IntValue(-int64(v.num)), nil
		case KFloat:
			return FloatValue(-v.Float()), nil
		}
		return Value{}, rtErrf(errUnaryNonNum, x.Pos())
	case token.NOT:
		b, err := truthy(v)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(!b), nil
	}
	return Value{}, rtErrf(errBadUnary, x.Pos())
}

func (ip *Interp) evalBinary(fr *Frame, x *ast.Binary) (Value, error) {
	// Short-circuit operators.
	if x.Op == token.AND || x.Op == token.OR {
		l, err := ip.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		lb, err := truthy(l)
		if err != nil {
			return Value{}, err
		}
		if x.Op == token.AND && !lb {
			return BoolValue(false), nil
		}
		if x.Op == token.OR && lb {
			return BoolValue(true), nil
		}
		r, err := ip.eval(fr, x.Y)
		if err != nil {
			return Value{}, err
		}
		return truthyVal(r)
	}

	l, err := ip.eval(fr, x.X)
	if err != nil {
		return Value{}, err
	}
	r, err := ip.eval(fr, x.Y)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(x, l, r)
}

// applyBinary is the strict (non-short-circuit) binary-operator kernel
// shared by both engines.
func applyBinary(x *ast.Binary, l, r Value) (Value, error) {
	switch x.Op {
	case token.EQ, token.NEQ:
		eq, err := valueEqual(l, r)
		if err != nil {
			return Value{}, err
		}
		if x.Op == token.NEQ {
			return BoolValue(!eq), nil
		}
		return BoolValue(eq), nil
	}

	if l.kind == KInt && r.kind == KInt {
		li, ri := int64(l.num), int64(r.num)
		switch x.Op {
		case token.PLUS:
			return IntValue(li + ri), nil
		case token.MINUS:
			return IntValue(li - ri), nil
		case token.STAR:
			return IntValue(li * ri), nil
		case token.SLASH:
			if ri == 0 {
				return Value{}, rtErrf(errDivZero, x.Pos())
			}
			return IntValue(li / ri), nil
		case token.PERCENT:
			if ri == 0 {
				return Value{}, rtErrf(errModZero, x.Pos())
			}
			return IntValue(li % ri), nil
		case token.LT:
			return BoolValue(li < ri), nil
		case token.LEQ:
			return BoolValue(li <= ri), nil
		case token.GT:
			return BoolValue(li > ri), nil
		case token.GEQ:
			return BoolValue(li >= ri), nil
		}
	}

	lf, lok := asFloat(l)
	rf, rok := asFloat(r)
	if !lok || !rok {
		return Value{}, rtErrf(errNonNumbers, x.Pos())
	}
	switch x.Op {
	case token.PLUS:
		return FloatValue(lf + rf), nil
	case token.MINUS:
		return FloatValue(lf - rf), nil
	case token.STAR:
		return FloatValue(lf * rf), nil
	case token.SLASH:
		return FloatValue(lf / rf), nil
	case token.LT:
		return BoolValue(lf < rf), nil
	case token.LEQ:
		return BoolValue(lf <= rf), nil
	case token.GT:
		return BoolValue(lf > rf), nil
	case token.GEQ:
		return BoolValue(lf >= rf), nil
	}
	return Value{}, rtErrf(errBadBinary, x.Pos())
}

func truthyVal(v Value) (Value, error) {
	b, err := truthy(v)
	if err != nil {
		return Value{}, err
	}
	return BoolValue(b), nil
}

func valueEqual(l, r Value) (bool, error) {
	lIsPtr := l.kind == KNull || l.kind == KObject
	rIsPtr := r.kind == KNull || r.kind == KObject
	if lIsPtr || rIsPtr {
		if !lIsPtr {
			return false, rtErrf("comparing pointer with non-pointer")
		}
		if !rIsPtr {
			return false, rtErrf("comparing pointer with non-pointer")
		}
		return l.Object() == r.Object(), nil
	}
	if l.kind == KBool {
		if r.kind != KBool {
			return false, rtErrf("comparing boolean with non-boolean")
		}
		return l.num == r.num, nil
	}
	lf, lok := asFloat(l)
	rf, rok := asFloat(r)
	if lok && rok {
		return lf == rf, nil
	}
	return false, rtErrf("unsupported comparison")
}

func (ip *Interp) evalAssign(fr *Frame, x *ast.Assign) (Value, error) {
	rhs, err := ip.eval(fr, x.RHS)
	if err != nil {
		return Value{}, err
	}
	if x.Op != token.ASSIGN {
		old, err := ip.eval(fr, x.LHS)
		if err != nil {
			return Value{}, err
		}
		rhs, err = applyCompound(x, old, rhs)
		if err != nil {
			return Value{}, err
		}
	}
	if err := ip.store(fr, x.LHS, rhs); err != nil {
		return Value{}, err
	}
	return rhs, nil
}

// applyCompound is the compound-assignment kernel shared by both
// engines.
func applyCompound(x *ast.Assign, old, rhs Value) (Value, error) {
	if old.kind == KInt && rhs.kind == KInt {
		oi, ri := int64(old.num), int64(rhs.num)
		switch x.Op {
		case token.PLUSEQ:
			return IntValue(oi + ri), nil
		case token.MINUSEQ:
			return IntValue(oi - ri), nil
		case token.STAREQ:
			return IntValue(oi * ri), nil
		case token.SLASHEQ:
			if ri == 0 {
				return Value{}, rtErrf(errDivZero, x.Pos())
			}
			return IntValue(oi / ri), nil
		}
	}
	of, ook := asFloat(old)
	rf, rok := asFloat(rhs)
	if !ook || !rok {
		return Value{}, rtErrf(errCompoundNonNum, x.Pos())
	}
	switch x.Op {
	case token.PLUSEQ:
		return FloatValue(of + rf), nil
	case token.MINUSEQ:
		return FloatValue(of - rf), nil
	case token.STAREQ:
		return FloatValue(of * rf), nil
	case token.SLASHEQ:
		return FloatValue(of / rf), nil
	}
	return Value{}, rtErrf(errBadCompound, x.Pos())
}

// store writes a value to an lvalue.
func (ip *Interp) store(fr *Frame, lhs ast.Expr, v Value) error {
	switch x := lhs.(type) {
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal, ast.SymParam:
			fr.vars[x.Slot] = coerceKind(x.Coerce, v)
			return nil
		case ast.SymField:
			if fr.this == nil {
				return rtErrf(errFieldNoRecvWr, x.Name)
			}
			if m := fr.ctx.Mon; m != nil {
				m.StoreField(fr.this, int(x.Slot), coerceKind(x.Coerce, v))
				return nil
			}
			fr.this.Slots[x.Slot] = coerceKind(x.Coerce, v)
			return nil
		}
		return rtErrf("cannot assign to %s", x.Name)
	case *ast.FieldAccess:
		base, err := ip.eval(fr, x.X)
		if err != nil {
			return err
		}
		if base.kind != KObject {
			return rtErrf(errFieldStoreObj, x.Pos())
		}
		if m := fr.ctx.Mon; m != nil {
			m.StoreField(base.ref.(*Object), int(x.Slot), coerceKind(x.Coerce, v))
			return nil
		}
		base.ref.(*Object).Slots[x.Slot] = coerceKind(x.Coerce, v)
		return nil
	case *ast.IndexExpr:
		arrV, err := ip.eval(fr, x.X)
		if err != nil {
			return err
		}
		idxV, err := ip.eval(fr, x.Index)
		if err != nil {
			return err
		}
		arr, i, err := elemStore(arrV, idxV, x)
		if err != nil {
			return err
		}
		if m := fr.ctx.Mon; m != nil {
			m.StoreElem(arr, i, coerceKind(x.Coerce, v))
			return nil
		}
		arr.Elems[i] = coerceKind(x.Coerce, v)
		return nil
	}
	return rtErrf("unsupported assignment target at %s", lhs.Pos())
}

// elemStore is an element write's checks, shared by both engines: the
// array x writes and the element's index.
func elemStore(arrV, idxV Value, x *ast.IndexExpr) (*Array, int, error) {
	if arrV.kind != KArray {
		return nil, 0, rtErrf(errIndexStoreArr, x.Pos())
	}
	arr := arrV.ref.(*Array)
	if idxV.kind != KInt {
		return nil, 0, rtErrf(errIndexStoreRng, idxV.Any(), x.Pos())
	}
	i := int64(idxV.num)
	if i < 0 || int(i) >= len(arr.Elems) {
		return nil, 0, rtErrf(errIndexStoreRng, idxV.Any(), x.Pos())
	}
	return arr, int(i), nil
}

// evalCall evaluates receiver and arguments, then dispatches through
// the context's Invoke hook. The arguments go into a frame pushed for
// them, as a compiled call's do: the builtin, the hook or Call gets them
// as a slice of it, which is popped when the call returns.
func (ip *Interp) evalCall(fr *Frame, x *ast.CallExpr) (Value, error) {
	ctx := fr.ctx
	var site *types.CallSite
	var recv *Object
	if !x.Builtin {
		site = ip.Prog.CallSites[x.Site]
		if x.Recv != nil {
			rv, err := ip.eval(fr, x.Recv)
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
		} else if site.Callee.Class != nil {
			recv = fr.this
		}
	}

	n := len(x.Args)
	nf := ctx.pushFrame(n)
	for i, a := range x.Args {
		v, err := ip.eval(fr, a)
		if err != nil {
			ctx.popFrame()
			return Value{}, err
		}
		nf.vars[i] = v
	}
	args := nf.vars[:n:n]
	var v Value
	var err error
	switch {
	case x.Builtin:
		ctx.charge(CostBuiltin)
		v, err = callBuiltin(ip, x.Method, x, args)
	case ctx.Invoke != nil:
		v, err = ctx.Invoke(site, recv, args)
	default:
		v, err = ip.Call(ctx, site.Callee, recv, args)
	}
	ctx.popFrame()
	return v, err
}
