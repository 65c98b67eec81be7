package symbolic

import (
	"strconv"

	"commute/internal/analysis/effects"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
)

func literalExpr(e ast.Expr) Expr {
	switch x := e.(type) {
	case *ast.IntLit:
		return Num{V: float64(x.Value), IsInt: true}
	case *ast.FloatLit:
		return Num{V: x.Value}
	case *ast.BoolLit:
		return Bool{V: x.Value}
	case *ast.NullLit:
		return Null{}
	case *ast.Unary:
		if x.Op == token.MINUS {
			if inner := literalExpr(x.X); inner != nil {
				if n, ok := inner.(Num); ok {
					return Num{V: -n.V, IsInt: n.IsInt}
				}
			}
		}
	}
	return nil
}

// eval evaluates an expression symbolically, applying side effects
// (assignments, invocations) to the executor state.
func (ex *executor) eval(e ast.Expr) (Expr, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return Num{V: float64(x.Value), IsInt: true}, nil
	case *ast.FloatLit:
		return Num{V: x.Value}, nil
	case *ast.BoolLit:
		return Bool{V: x.Value}, nil
	case *ast.NullLit:
		return Null{}, nil
	case *ast.StringLit:
		return Var{Name: strconv.Quote(x.Value)}, nil
	case *ast.ThisExpr:
		return Var{Name: "this"}, nil
	case *ast.Ident:
		return ex.evalIdent(x)
	case *ast.FieldAccess:
		return ex.evalFieldAccess(x)
	case *ast.IndexExpr:
		arr, err := ex.eval(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := ex.eval(x.Index)
		if err != nil {
			return nil, err
		}
		return ex.tab.mkArrSel(arr, idx), nil
	case *ast.Unary:
		v, err := ex.eval(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == token.MINUS {
			return ex.tab.mkNeg(v), nil
		}
		return ex.tab.mkNot(v), nil
	case *ast.Binary:
		return ex.evalBinary(x)
	case *ast.CastExpr:
		v, err := ex.eval(x.X)
		if err != nil {
			return nil, err
		}
		return ex.tab.mkCall("cast:"+x.ClassName, []Expr{v}), nil
	case *ast.Assign:
		return ex.evalAssign(x)
	case *ast.CallExpr:
		return ex.evalCall(x)
	case *ast.NewExpr:
		return nil, ex.failf("object creation is not symbolically executable")
	}
	return nil, ex.failf("unsupported expression")
}

func (ex *executor) evalIdent(x *ast.Ident) (Expr, error) {
	switch x.Sym {
	case ast.SymLocal:
		if v := lookup(ex.locals, x.Name); v != nil {
			return v, nil
		}
		v := Var{Name: ex.tag + ":undef:" + x.Name}
		ex.setLocal(x.Name, v)
		return v, nil
	case ast.SymParam:
		return ex.param(x.Name), nil
	case ast.SymConst:
		cv := ex.env.Prog.Consts[x.Name]
		if cv.IsInt {
			return Num{V: float64(cv.I), IsInt: true}, nil
		}
		return Num{V: cv.F}, nil
	case ast.SymField:
		if _, isObj := ex.env.Prog.TypeOf(x).(types.Object); isObj {
			// A nested object used as a receiver: identified by its
			// path from the shared receiver.
			return Var{Name: "this." + x.Name}, nil
		}
		key := x.FieldClass + "." + x.Name
		if v, ok := ex.ivars[key]; ok {
			return v, nil
		}
		v := Var{Name: "iv:" + key}
		ex.ivars[key] = v
		return v, nil
	case ast.SymGlobal:
		return Var{Name: "global:" + x.Name}, nil
	}
	return nil, ex.failf("unresolved identifier %s", x.Name)
}

// evalFieldAccess reads a field. Receiver fields come from the shared
// state; reads of other objects' fields (including globals) must be
// extent constants and become opaque extent-constant expressions keyed
// by their storage descriptor.
func (ex *executor) evalFieldAccess(x *ast.FieldAccess) (Expr, error) {
	if _, isObj := ex.env.Prog.TypeOf(x).(types.Object); isObj {
		base, err := ex.eval(x.X)
		if err != nil {
			return nil, err
		}
		return Var{Name: base.Key() + "." + x.Name}, nil
	}
	// this->field.
	if _, isThis := x.X.(*ast.ThisExpr); isThis {
		key := x.DeclClass + "." + x.Name
		if v, ok := ex.ivars[key]; ok {
			return v, nil
		}
		v := Var{Name: "iv:" + key}
		ex.ivars[key] = v
		return v, nil
	}
	// A field of another object (or of a nested object): legal only
	// when it holds an extent constant value. The opaque constant is
	// keyed by the storage descriptor *and* the base object expression:
	// reads of the same class-level storage through different pointers
	// denote different locations and must not compare equal.
	desc, ok := ex.fieldDescOf(x)
	if !ok {
		return nil, ex.failf("unanalyzable field access %s", x.Name)
	}
	if desc.ViaThis {
		// A nested-object field of the receiver read directly: it must
		// be extent constant (the object section cannot observe writes
		// through nested operations).
		norm := desc
		norm.ViaThis = false
		if !ex.env.covers(norm) {
			return nil, ex.failf("read of nested field %s that is not an extent constant", norm.Key())
		}
		return Extent{ID: "ec:" + norm.Key() + "@this"}, nil
	}
	if !ex.env.covers(desc) {
		return nil, ex.failf("read of %s which is not an extent constant", desc.Key())
	}
	base, err := ex.eval(x.X)
	if err != nil {
		return nil, err
	}
	return Extent{ID: "ec:" + desc.Key() + "@" + ex.tab.simplify(base).Key()}, nil
}

// fieldDescOf resolves a field access to a storage descriptor using the
// local-effects resolver.
func (ex *executor) fieldDescOf(x *ast.FieldAccess) (effects.Desc, bool) {
	w := effects.NewResolver(ex.env.Prog, ex.m)
	return w.AccessDesc(x)
}

func (ex *executor) evalBinary(x *ast.Binary) (Expr, error) {
	l, err := ex.eval(x.X)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(x.Y)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case token.PLUS:
		return ex.tab.mkNary(OpAdd, []Expr{l, r}), nil
	case token.MINUS:
		return ex.tab.mkNary(OpAdd, []Expr{l, ex.tab.mkNeg(r)}), nil
	case token.STAR:
		return ex.tab.mkNary(OpMul, []Expr{l, r}), nil
	case token.SLASH:
		return ex.tab.mkBin(OpDiv, l, r), nil
	case token.PERCENT:
		return ex.tab.mkBin(OpMod, l, r), nil
	case token.LT:
		return ex.tab.mkBin(OpLt, l, r), nil
	case token.LEQ:
		return ex.tab.mkBin(OpLe, l, r), nil
	case token.GT:
		return ex.tab.mkBin(OpGt, l, r), nil
	case token.GEQ:
		return ex.tab.mkBin(OpGe, l, r), nil
	case token.EQ:
		return ex.tab.mkBin(OpEq, l, r), nil
	case token.NEQ:
		return ex.tab.mkBin(OpNe, l, r), nil
	case token.AND:
		return ex.tab.mkNary(OpAnd, []Expr{l, r}), nil
	case token.OR:
		return ex.tab.mkNary(OpOr, []Expr{l, r}), nil
	}
	return nil, ex.failf("unsupported operator %s", x.Op)
}

func (ex *executor) evalAssign(x *ast.Assign) (Expr, error) {
	rhs, err := ex.eval(x.RHS)
	if err != nil {
		return nil, err
	}
	if x.Op != token.ASSIGN {
		old, err := ex.eval(x.LHS)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case token.PLUSEQ:
			rhs = ex.tab.mkNary(OpAdd, []Expr{old, rhs})
		case token.MINUSEQ:
			rhs = ex.tab.mkNary(OpAdd, []Expr{old, ex.tab.mkNeg(rhs)})
		case token.STAREQ:
			rhs = ex.tab.mkNary(OpMul, []Expr{old, rhs})
		case token.SLASHEQ:
			rhs = ex.tab.mkBin(OpDiv, old, rhs)
		}
	}
	if err := ex.store(x.LHS, rhs); err != nil {
		return nil, err
	}
	return rhs, nil
}

// store writes a symbolic value to an lvalue.
func (ex *executor) store(lhs ast.Expr, v Expr) error {
	switch x := lhs.(type) {
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal:
			ex.setLocal(x.Name, v)
			return nil
		case ast.SymParam:
			p := ex.m.ParamByName(x.Name)
			if p != nil && p.IsRef() {
				return ex.failf("write to reference parameter %s", x.Name)
			}
			// Value parameters are local copies.
			ex.setParam(x.Name, v)
			return nil
		case ast.SymField:
			ex.ivars[x.FieldClass+"."+x.Name] = v
			return nil
		}
	case *ast.FieldAccess:
		if _, isThis := x.X.(*ast.ThisExpr); isThis {
			ex.ivars[x.DeclClass+"."+x.Name] = v
			return nil
		}
		return ex.failf("write to a non-receiver field %s", x.Name)
	case *ast.IndexExpr:
		idx, err := ex.eval(x.Index)
		if err != nil {
			return err
		}
		name, kind := ex.lvalueArray(x.X)
		if kind == arrNone {
			return ex.failf("unanalyzable array store")
		}
		if kind == arrParam {
			return ex.failf("write to reference parameter array")
		}
		ex.storeArray(name, kind, ex.tab.mkArrStore(ex.loadArray(name, kind), ex.tab.simplify(idx), v))
		return nil
	}
	return ex.failf("unanalyzable lvalue")
}

// evalCall handles builtin, auxiliary, and extent invocations.
func (ex *executor) evalCall(x *ast.CallExpr) (Expr, error) {
	if x.Builtin {
		b := types.Builtins[x.Method]
		if b != nil && b.IsIO {
			return nil, ex.failf("I/O in symbolically executed code")
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			v, err := ex.eval(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return ex.tab.mkCall(x.Method, args), nil
	}
	site := ex.env.Prog.CallSites[x.Site]
	if ex.env.isAux(x.Site) {
		return ex.evalAuxCall(x, site)
	}
	// Extent operation: record the invocation; its value may not be
	// consumed (extent operations are effectively void in the model).
	recv, args, err := ex.callParts(x)
	if err != nil {
		return nil, err
	}
	*ex.invoked = append(*ex.invoked, MX{
		Guard:  ex.curGuard(),
		Recv:   recv,
		Method: site.Callee.FullName(),
		Args:   args,
	})
	if !types.Equal(site.Callee.Ret, types.Basic(types.Void)) {
		// The checker cannot tell whether the value is used here; be
		// conservative only when it is (handled by callers that consume
		// the value — the statement context discards it).
	}
	return Var{Name: "void"}, nil
}

// callParts evaluates the receiver and argument expressions of a call.
func (ex *executor) callParts(x *ast.CallExpr) (Expr, []Expr, error) {
	var recv Expr = Var{Name: "this"}
	if x.Recv != nil {
		r, err := ex.eval(x.Recv)
		if err != nil {
			return nil, nil, err
		}
		recv = r
	}
	args := make([]Expr, len(x.Args))
	for i, a := range x.Args {
		v, err := ex.eval(a)
		if err != nil {
			return nil, nil, err
		}
		args[i] = v
	}
	return recv, args, nil
}

// evalAuxCall executes an auxiliary operation: its results are extent
// constant values — deterministic functions of the receiver, the value
// arguments, and extent constant state. The opaque constants are
// therefore keyed by (call site, receiver, argument values): two
// invocations (in either execution order) that reach the site with the
// same symbolic arguments produce the same constants, while invocations
// with different parameters produce distinct ones.
func (ex *executor) evalAuxCall(x *ast.CallExpr, site *types.CallSite) (Expr, error) {
	sig := "aux" + strconv.Itoa(x.Site)
	if x.Recv != nil {
		recv, err := ex.eval(x.Recv)
		if err != nil {
			return nil, err
		}
		sig += "@" + ex.tab.simplify(recv).Key()
	}
	var refLocals []struct {
		local string
		param string
	}
	for i, a := range x.Args {
		if i < len(site.Callee.Params) && site.Callee.Params[i].IsRef() {
			// The callee writes an extent constant value into the
			// reference actual.
			id, ok := a.(*ast.Ident)
			if !ok || id.Sym != ast.SymLocal {
				return nil, ex.failf("auxiliary reference actual is not a local")
			}
			refLocals = append(refLocals, struct{ local, param string }{id.Name, site.Callee.Params[i].Name})
			continue
		}
		v, err := ex.eval(a)
		if err != nil {
			return nil, err
		}
		sig += "," + ex.tab.simplify(v).Key()
	}
	for _, rl := range refLocals {
		ex.setLocal(rl.local, Extent{ID: sig + ":ref:" + rl.param})
	}
	return Extent{ID: sig + ":ret"}, nil
}
