package symbolic

import (
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
)

// maxUnroll bounds the fallback loop unrolling.
const maxUnroll = 64

// forStmt executes a for loop: first the two recognized closed forms of
// §4.8.1 (whole-array elementwise updates and loop-form invocations),
// then constant-bound unrolling as a fallback.
func (ex *executor) forStmt(st *ast.ForStmt) error {
	if done, err := ex.tryArrayForm(st); done || err != nil {
		return err
	}
	if done, err := ex.tryInvocationForm(st); done || err != nil {
		return err
	}
	return ex.unrollLoop(st)
}

// countedLocal is st's counted header (ast.MatchCountedLoop) when the
// loop forms below can use it: the loop variable is a local and has an
// initial value.
func countedLocal(st *ast.ForStmt) (ast.CountedLoop, bool) {
	h, ok := ast.MatchCountedLoop(st)
	return h, ok && h.Var.Sym == ast.SymLocal && h.From != nil
}

// mentionsIdent reports whether the expression mentions the named
// identifier.
func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// singleStmt unwraps one-statement blocks.
func singleStmt(s ast.Stmt) ast.Stmt {
	for {
		b, ok := s.(*ast.Block)
		if !ok {
			return s
		}
		if len(b.Stmts) != 1 {
			return s
		}
		s = b.Stmts[0]
	}
}

// tryArrayForm recognizes the paper's first loop form:
//
//	for (l = 0; l < bound; l++)  v[l] = v[l] ⊕ e;   (or v[l] ⊕= e, v[l] = e)
//
// where v is an array variable and e is loop-invariant (possibly w[l]
// with w an array holding an extent constant value, combined
// elementwise).
func (ex *executor) tryArrayForm(st *ast.ForStmt) (bool, error) {
	h, ok := countedLocal(st)
	if !ok || h.Step != 1 {
		return false, nil
	}
	if lit, isLit := h.From.(*ast.IntLit); !isLit || lit.Value != 0 {
		return false, nil
	}
	v := h.Var.Name
	body, ok := singleStmt(st.Body).(*ast.ExprStmt)
	if !ok {
		return false, nil
	}
	asn, ok := body.X.(*ast.Assign)
	if !ok {
		return false, nil
	}
	idx, ok := asn.LHS.(*ast.IndexExpr)
	if !ok {
		return false, nil
	}
	iid, ok := idx.Index.(*ast.Ident)
	if !ok || iid.Name != v {
		return false, nil
	}
	// The target array: an instance-variable array, local array, or
	// reference-parameter array.
	target, tKind := ex.lvalueArray(idx.X)
	if tKind == arrNone {
		return false, nil
	}

	// Apply an elementwise update v = v ⊕ operand (negating for
	// subtraction, which is represented as addition of the negation).
	apply := func(op Op, operandAST ast.Expr, negate bool) (bool, error) {
		operand, err := ex.loopOperand(operandAST, v)
		if err != nil || operand == nil {
			return false, err
		}
		if negate {
			operand = ex.tab.simplify(ex.tab.mkNeg(operand))
		}
		ex.storeArray(target, tKind, ex.tab.mkArrUpd(
			ex.loadArray(target, tKind), op, ex.tab.simplify(operand),
		))
		return true, nil
	}
	fill := func(e ast.Expr) (bool, error) {
		val, err := ex.eval(e)
		if err != nil {
			return false, err
		}
		ex.storeArray(target, tKind, ex.tab.mkArrFill(ex.tab.simplify(val)))
		return true, nil
	}

	switch asn.Op {
	case token.PLUSEQ:
		return apply(OpAdd, asn.RHS, false)
	case token.STAREQ:
		return apply(OpMul, asn.RHS, false)
	case token.MINUSEQ:
		return apply(OpAdd, asn.RHS, true)
	case token.SLASHEQ:
		return apply(OpDiv, asn.RHS, false)
	case token.ASSIGN:
		// v[l] = v[l] ⊕ e,  v[l] = w[l]  (copy),  or  v[l] = e  (fill).
		if bin, isBin := asn.RHS.(*ast.Binary); isBin {
			if lhsIdx, isIdx := bin.X.(*ast.IndexExpr); isIdx && sameArrayRef(lhsIdx, idx) {
				switch bin.Op {
				case token.PLUS:
					return apply(OpAdd, bin.Y, false)
				case token.STAR:
					return apply(OpMul, bin.Y, false)
				case token.MINUS:
					return apply(OpAdd, bin.Y, true)
				case token.SLASH:
					return apply(OpDiv, bin.Y, false)
				}
				return false, nil
			}
		}
		if wIdx, isIdx := asn.RHS.(*ast.IndexExpr); isIdx {
			if wid, isID := wIdx.Index.(*ast.Ident); isID && wid.Name == v {
				// v[l] = w[l]: whole-array copy.
				src, err := ex.loopOperand(asn.RHS, v)
				if err != nil || src == nil {
					return false, err
				}
				ex.storeArray(target, tKind, src)
				return true, nil
			}
			return false, nil
		}
		if !mentionsIdent(asn.RHS, v) {
			return fill(asn.RHS)
		}
		return false, nil
	}
	return false, nil
}

// loopOperand evaluates the ⊕-operand of the array loop form: either a
// loop-invariant scalar expression or w[l] for an array w, which
// denotes w's whole-array value combined elementwise.
func (ex *executor) loopOperand(e ast.Expr, loopVar string) (Expr, error) {
	if idx, ok := e.(*ast.IndexExpr); ok {
		if iid, isID := idx.Index.(*ast.Ident); isID && iid.Name == loopVar {
			arr, kind := ex.lvalueArray(idx.X)
			if kind == arrNone {
				return nil, nil
			}
			return ex.loadArray(arr, kind), nil
		}
	}
	if mentionsIdent(e, loopVar) {
		return nil, nil
	}
	return ex.eval(e)
}

// sameArrayRef reports whether two index expressions reference the same
// array with the same index variable (syntactically).
func sameArrayRef(a, b *ast.IndexExpr) bool {
	aid, aok := a.Index.(*ast.Ident)
	bid, bok := b.Index.(*ast.Ident)
	if !aok || !bok || aid.Name != bid.Name {
		return false
	}
	return arrayRefKey(a.X) == arrayRefKey(b.X) && arrayRefKey(a.X) != ""
}

func arrayRefKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.FieldAccess:
		base := arrayRefKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Name
	case *ast.ThisExpr:
		return "this"
	}
	return ""
}

// arrKind identifies where an array value lives.
type arrKind int

const (
	arrNone arrKind = iota
	arrLocal
	arrParam
	arrIvar
)

// lvalueArray resolves an array-valued expression to its storage slot.
func (ex *executor) lvalueArray(e ast.Expr) (string, arrKind) {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal:
			return x.Name, arrLocal
		case ast.SymParam:
			return x.Name, arrParam
		case ast.SymField:
			return x.FieldClass + "." + x.Name, arrIvar
		}
	case *ast.FieldAccess:
		// this->field arrays.
		if _, isThis := x.X.(*ast.ThisExpr); isThis {
			return x.DeclClass + "." + x.Name, arrIvar
		}
	}
	return "", arrNone
}

func (ex *executor) loadArray(name string, kind arrKind) Expr {
	switch kind {
	case arrLocal:
		return lookup(ex.locals, name)
	case arrParam:
		return ex.param(name)
	default:
		return ex.ivars[name]
	}
}

func (ex *executor) storeArray(name string, kind arrKind, v Expr) {
	switch kind {
	case arrLocal:
		ex.setLocal(name, v)
	case arrParam:
		ex.setParam(name, v)
	default:
		ex.ivars[name] = v
	}
}

// tryInvocationForm recognizes the paper's second loop form:
//
//	for (l = e1; l < e2; l += e3)  r->op(e5, ..., en);
//
// where the receiver and arguments are loop-invariant. The loop emits a
// single loop-form MX expression.
func (ex *executor) tryInvocationForm(st *ast.ForStmt) (bool, error) {
	h, ok := countedLocal(st)
	if !ok {
		return false, nil
	}
	v := h.Var.Name
	body, okB := singleStmt(st.Body).(*ast.ExprStmt)
	if !okB {
		return false, nil
	}
	call, okC := body.X.(*ast.CallExpr)
	if !okC || call.Builtin || call.Site < 0 {
		return false, nil
	}
	if ex.env.isAux(call.Site) {
		return false, nil // auxiliary loops compute nothing visible
	}
	if call.Recv != nil && mentionsIdent(call.Recv, v) {
		return false, nil
	}
	for _, a := range call.Args {
		if mentionsIdent(a, v) {
			return false, nil
		}
	}
	fromE, err := ex.eval(h.From)
	if err != nil {
		return false, err
	}
	boundE, err := ex.eval(h.Bound)
	if err != nil {
		return false, err
	}
	recv, args, err := ex.callParts(call)
	if err != nil {
		return false, err
	}
	site := ex.env.Prog.CallSites[call.Site]
	*ex.invoked = append(*ex.invoked, MX{
		Guard:  ex.curGuard(),
		Recv:   recv,
		Method: site.Callee.FullName(),
		Args:   args,
		Loop: &LoopSpec{
			Var:  v,
			From: ex.tab.simplify(fromE),
			To:   ex.tab.simplify(boundE),
			Step: Num{V: float64(h.Step), IsInt: true},
		},
	})
	return true, nil
}

// unrollLoop executes a constant-bound loop by unrolling.
func (ex *executor) unrollLoop(st *ast.ForStmt) error {
	h, ok := countedLocal(st)
	if !ok {
		return ex.failf("loop not in a recognized form")
	}
	v, step := h.Var.Name, h.Step
	if ast.AssignedVars(st.Body)[v] {
		return ex.failf("loop body assigns its variable %s", v)
	}
	fromV, okF := ex.evalConstInt(h.From)
	boundV, okB := ex.evalConstInt(h.Bound)
	if !okF || !okB {
		return ex.failf("loop bounds are not compile-time constants")
	}
	iters := (boundV - fromV + step - 1) / step
	if iters < 0 {
		iters = 0
	}
	if iters > maxUnroll {
		return ex.failf("loop too large to unroll (%d iterations)", iters)
	}
	i := fromV
	for ; i < boundV; i += step {
		ex.setLocal(v, Num{V: float64(i), IsInt: true})
		if err := ex.stmt(st.Body); err != nil {
			return err
		}
	}
	// What the serial loop leaves: fromV itself after no iteration.
	ex.setLocal(v, Num{V: float64(i), IsInt: true})
	return nil
}
