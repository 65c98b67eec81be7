package ast

import "commute/internal/frontend/token"

// CountedLoop is the header of a for statement of the counted shape
//
//	for (v = From; v < Bound; v += Step)
//
// with v a local or parameter and Step a positive integer literal. It
// is the one reading of a for header in the system: the planner decides
// parallel loops on it, the interpreter offers loops by it, the work
// estimate and the symbolic executor take their loop forms from it.
type CountedLoop struct {
	// Var is the loop variable as the condition names it: Name, Sym and
	// Slot from the checker. Names are unique within a frame (the
	// dialect has no shadowing), so the name identifies the variable.
	Var *Ident
	// From is the initial value; nil when the init is a declaration
	// without an initializer (`int v;`, which zeroes v).
	From  Expr
	Bound Expr
	Step  int64
}

// MatchCountedLoop matches the structure of fs against the counted
// shape: the init declares v or assigns it with `=`, the condition is
// `v < Bound`, and the post is `v += Step` (`v++` parses to it) or
// `v = v + Step`. Nothing is said about types or about the body; Bound
// is any expression (see Pure).
func MatchCountedLoop(fs *ForStmt) (CountedLoop, bool) {
	var h CountedLoop
	cmp, ok := fs.Cond.(*Binary)
	if !ok || cmp.Op != token.LT {
		return h, false
	}
	h.Var, ok = cmp.X.(*Ident)
	if !ok || (h.Var.Sym != SymLocal && h.Var.Sym != SymParam) {
		return h, false
	}
	isVar := func(e Expr) bool {
		id, ok := e.(*Ident)
		return ok && id.Name == h.Var.Name
	}
	switch init := fs.Init.(type) {
	case *DeclStmt:
		if init.Name != h.Var.Name {
			return h, false
		}
		h.From = init.Init
	case *ExprStmt:
		asn, ok := init.X.(*Assign)
		if !ok || asn.Op != token.ASSIGN || !isVar(asn.LHS) {
			return h, false
		}
		h.From = asn.RHS
	default:
		return h, false
	}
	post, ok := fs.Post.(*ExprStmt)
	if !ok {
		return h, false
	}
	asn, ok := post.X.(*Assign)
	if !ok || !isVar(asn.LHS) {
		return h, false
	}
	var step Expr
	switch add, _ := asn.RHS.(*Binary); {
	case asn.Op == token.PLUSEQ:
		step = asn.RHS
	case asn.Op == token.ASSIGN && add != nil && add.Op == token.PLUS && isVar(add.X):
		step = add.Y
	}
	lit, ok := step.(*IntLit)
	if !ok || lit.Value <= 0 {
		return h, false
	}
	h.Bound, h.Step = cmp.Y, lit.Value
	return h, true
}

// Pure reports whether evaluating e has no side effect: no call, no
// assignment, no allocation. A pure loop bound can be evaluated once to
// offer the loop and again by the serial loop that runs when the offer
// is declined.
func Pure(e Expr) bool {
	pure := true
	Inspect(e, func(n Node) bool {
		switch n.(type) {
		case *CallExpr, *Assign, *NewExpr:
			pure = false
		}
		return pure
	})
	return pure
}

// AssignedVars returns the names of the locals and parameters n
// assigns: the target of an assignment at any depth, or a declaration
// (which zeroes or initializes its variable).
func AssignedVars(n Node) map[string]bool {
	out := make(map[string]bool)
	Inspect(n, func(m Node) bool {
		switch x := m.(type) {
		case *DeclStmt:
			out[x.Name] = true
		case *Assign:
			if id, ok := x.LHS.(*Ident); ok && (id.Sym == SymLocal || id.Sym == SymParam) {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}
