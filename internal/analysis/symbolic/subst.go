package symbolic

// Structural substitution and traversal over symbolic expressions.
// These support the conditional-commutativity synthesis in
// internal/cond: the case-split over embedded conditionals substitutes
// a Bool literal for every occurrence of a condition expression and
// re-simplifies, and the guardability analysis walks expression trees
// to classify their leaves.

// Walk traverses e in preorder, calling f on every node. If f returns
// false the node's children are not visited.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Nary:
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *Bin:
		Walk(x.L, f)
		Walk(x.R, f)
	case *Neg:
		Walk(x.X, f)
	case *Not:
		Walk(x.X, f)
	case *Call:
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *Cond:
		Walk(x.C, f)
		Walk(x.T, f)
		Walk(x.F, f)
	case *ArrUpd:
		Walk(x.Arr, f)
		Walk(x.Operand, f)
	case *ArrFill:
		Walk(x.Elem, f)
	case *ArrStore:
		Walk(x.Arr, f)
		Walk(x.Idx, f)
		Walk(x.Val, f)
	case *ArrSel:
		Walk(x.Arr, f)
		Walk(x.Idx, f)
	case *AccumAt:
		Walk(x.Arr, f)
		Walk(x.Idx, f)
		Walk(x.Delta, f)
	}
}

// Subst replaces every subexpression whose canonical Key appears in
// repl with the corresponding replacement and returns the result
// interned in tab. Matching is by Key, so the same condition expression is
// replaced wherever it occurs, however the tree was built. The result
// is not simplified; callers normally pass it through Simplify.
func Subst(tab *Table, e Expr, repl map[string]Expr) Expr {
	if e == nil || len(repl) == 0 {
		return e
	}
	return Intern(tab, subst(e, repl))
}

func subst(e Expr, repl map[string]Expr) Expr {
	if r, ok := repl[e.Key()]; ok {
		return r
	}
	switch x := e.(type) {
	case *Nary:
		args, changed := substSlice(x.Args, repl)
		if !changed {
			return e
		}
		return &Nary{Op: x.Op, Args: args}
	case *Bin:
		l, r := subst(x.L, repl), subst(x.R, repl)
		if l == x.L && r == x.R {
			return e
		}
		return &Bin{Op: x.Op, L: l, R: r}
	case *Neg:
		if nx := subst(x.X, repl); nx != x.X {
			return &Neg{X: nx}
		}
	case *Not:
		if nx := subst(x.X, repl); nx != x.X {
			return &Not{X: nx}
		}
	case *Call:
		args, changed := substSlice(x.Args, repl)
		if !changed {
			return e
		}
		return &Call{Fn: x.Fn, Args: args}
	case *Cond:
		c, t, f := subst(x.C, repl), subst(x.T, repl), subst(x.F, repl)
		if c == x.C && t == x.T && f == x.F {
			return e
		}
		return &Cond{C: c, T: t, F: f}
	case *ArrUpd:
		arr, op := subst(x.Arr, repl), subst(x.Operand, repl)
		if arr == x.Arr && op == x.Operand {
			return e
		}
		return &ArrUpd{Arr: arr, Op: x.Op, Operand: op}
	case *ArrFill:
		if el := subst(x.Elem, repl); el != x.Elem {
			return &ArrFill{Elem: el}
		}
	case *ArrStore:
		arr, idx, val := subst(x.Arr, repl), subst(x.Idx, repl), subst(x.Val, repl)
		if arr == x.Arr && idx == x.Idx && val == x.Val {
			return e
		}
		return &ArrStore{Arr: arr, Idx: idx, Val: val}
	case *ArrSel:
		arr, idx := subst(x.Arr, repl), subst(x.Idx, repl)
		if arr == x.Arr && idx == x.Idx {
			return e
		}
		return &ArrSel{Arr: arr, Idx: idx}
	case *AccumAt:
		arr, idx, d := subst(x.Arr, repl), subst(x.Idx, repl), subst(x.Delta, repl)
		if arr == x.Arr && idx == x.Idx && d == x.Delta {
			return e
		}
		return &AccumAt{Arr: arr, Op: x.Op, Idx: idx, Delta: d}
	}
	return e
}

func substSlice(args []Expr, repl map[string]Expr) ([]Expr, bool) {
	changed := false
	out := args
	for i, a := range args {
		na := subst(a, repl)
		if na != a && !changed {
			changed = true
			out = make([]Expr, len(args))
			copy(out, args)
		}
		if changed {
			out[i] = na
		}
	}
	return out, changed
}

// MkNot returns the boolean negation of x, interned in tab.
func MkNot(tab *Table, x Expr) Expr { return tab.mkNot(x) }

// MkBin returns the binary application op(l, r), interned in tab.
func MkBin(tab *Table, op Op, l, r Expr) Expr { return tab.mkBin(op, l, r) }
