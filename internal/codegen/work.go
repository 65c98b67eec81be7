package codegen

// The static work estimate: for every method, an upper bound on the
// DASH cost units one serial execution of it charges, callees included.
// It is what the entry rule of each runtime (rt.serialCtx,
// emitRegionWrapper) compares against that runtime's region-entry cost
// to decline a region parallel execution cannot win — §5.2's suppression
// of concurrency that does not pay, taken from "already inside a region"
// to "not worth a region".
//
// The bound charges exactly what the tree walker charges
// (internal/interp: the same five constants, a unit per statement and
// per expression node, an assignment target's subexpressions but not
// the target) and differs from a real run only where it must guess:
//   - an if costs its condition plus the dearer branch, and && and ||
//     always evaluate both operands;
//   - a for with the counted header `v = a; v < b; v += s`
//     (ast.MatchCountedLoop), a and b int literals or named constants
//     and v not assigned in the body runs ceil((b-a)/s) times; every
//     other for, every while, and every method on or reaching a call
//     cycle is unbounded;
//   - a return is taken to fall through (the statements after it count).
//
// Arithmetic saturates at WorkUnbounded, so a product of constant trip
// counts past int64 is unbounded, not negative.

import (
	"math"

	"commute/internal/core"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// WorkUnbounded is the estimate of a method whose serial cost no
// compile-time constant bounds.
const WorkUnbounded int64 = math.MaxInt64

// WorkUnder reports whether the method's work is known to stay under
// cost units. Zero means no estimate was made (a plan reconstructed
// from annotations, a test that cleared it): nothing is known, and the
// region opens. No method costs zero — a call alone is interp.CostCall.
func (mp *MethodPlan) WorkUnder(cost int64) bool { return mp.Work != 0 && mp.Work < cost }

// methodWork returns the estimate of every method, by types.Method.ID.
// It depends on the program alone, so the plans built from one analysis
// share one computation.
func methodWork(a *core.Analysis) []int64 {
	return a.MethodWork(func() []int64 {
		w := &workPass{prog: a.Prog, work: make([]int64, len(a.Prog.Methods))}
		for _, m := range a.Prog.Methods {
			w.method(m)
		}
		return w.work
	})
}

// workPass walks each method body once, callees first.
type workPass struct {
	prog *types.Program
	work []int64 // 0: not visited; workVisiting: on the walk's stack
}

// workVisiting marks a method whose body is being walked; a call that
// finds it closes a cycle. No estimate is negative.
const workVisiting = -1

func satAdd(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return WorkUnbounded
}

func satMul(a, n int64) int64 {
	if a == 0 || n == 0 {
		return 0
	}
	if a > WorkUnbounded/n {
		return WorkUnbounded
	}
	return a * n
}

func (w *workPass) method(m *types.Method) int64 {
	switch c := w.work[m.ID]; {
	case c == workVisiting:
		return WorkUnbounded
	case c != 0:
		return c
	}
	if m.Def == nil {
		// No body to bound (running it is an error).
		w.work[m.ID] = WorkUnbounded
		return WorkUnbounded
	}
	w.work[m.ID] = workVisiting
	c := satAdd(interp.CostCall, w.stmt(m.Def.Body))
	w.work[m.ID] = c
	return c
}

func (w *workPass) stmt(s ast.Stmt) int64 {
	c := int64(interp.CostStmt)
	switch st := s.(type) {
	case *ast.Block:
		for _, sub := range st.Stmts {
			c = satAdd(c, w.stmt(sub))
		}
	case *ast.DeclStmt:
		if st.Init != nil {
			c = satAdd(c, w.expr(st.Init))
		}
	case *ast.ExprStmt:
		c = satAdd(c, w.expr(st.X))
	case *ast.IfStmt:
		c = satAdd(c, w.expr(st.Cond))
		branch := w.stmt(st.Then)
		if st.Else != nil {
			branch = max(branch, w.stmt(st.Else))
		}
		c = satAdd(c, branch)
	case *ast.ForStmt:
		c = satAdd(c, w.forStmt(st))
	case *ast.WhileStmt:
		// Walked all the same: the callees' estimates are wanted whether
		// or not this one is bounded.
		w.expr(st.Cond)
		w.stmt(st.Body)
		return WorkUnbounded
	case *ast.ReturnStmt:
		if st.X != nil {
			c = satAdd(c, w.expr(st.X))
		}
	default:
		return WorkUnbounded
	}
	return c
}

// forStmt bounds a for loop past its own statement unit: the init once,
// condition, body and post per trip, and the condition that ends it.
func (w *workPass) forStmt(st *ast.ForStmt) int64 {
	var c, cond, post int64
	if st.Init != nil {
		c = w.stmt(st.Init)
	}
	if st.Cond != nil {
		cond = w.expr(st.Cond)
	}
	body := w.stmt(st.Body)
	if st.Post != nil {
		post = w.stmt(st.Post)
	}
	trips, ok := w.trips(st)
	if !ok {
		return WorkUnbounded
	}
	trip := satAdd(cond, satAdd(body, post))
	return satAdd(c, satAdd(satMul(trip, trips), cond))
}

// trips is the trip count of a counted loop from and to compile-time
// constants whose body leaves the loop variable alone.
func (w *workPass) trips(st *ast.ForStmt) (int64, bool) {
	h, ok := ast.MatchCountedLoop(st)
	if !ok || h.From == nil {
		return 0, false
	}
	a, okA := w.constInt(h.From)
	b, okB := w.constInt(h.Bound)
	if !okA || !okB || ast.AssignedVars(st.Body)[h.Var.Name] {
		return 0, false
	}
	if b <= a {
		return 0, true
	}
	span := b - a
	if span < 0 { // b - a overflowed
		return 0, false
	}
	return (span-1)/h.Step + 1, true
}

// constInt evaluates an int literal or a named int constant.
func (w *workPass) constInt(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.Ident:
		if cv, ok := w.prog.Consts[x.Name]; ok && x.Sym == ast.SymConst && cv.IsInt {
			return cv.I, true
		}
	}
	return 0, false
}

func (w *workPass) expr(e ast.Expr) int64 {
	c := int64(interp.CostExpr)
	switch x := e.(type) {
	case *ast.FieldAccess:
		c = satAdd(c, w.expr(x.X))
	case *ast.IndexExpr:
		c = satAdd(c, satAdd(w.expr(x.X), w.expr(x.Index)))
	case *ast.CastExpr:
		c = satAdd(c, w.expr(x.X))
	case *ast.Unary:
		c = satAdd(c, w.expr(x.X))
	case *ast.Binary:
		c = satAdd(c, satAdd(w.expr(x.X), w.expr(x.Y)))
	case *ast.NewExpr:
		c += interp.CostAlloc
	case *ast.Assign:
		c = satAdd(c, w.expr(x.RHS))
		if x.Op != token.ASSIGN {
			c = satAdd(c, w.expr(x.LHS))
		}
		// The store evaluates the target's subexpressions only.
		switch lhs := x.LHS.(type) {
		case *ast.FieldAccess:
			c = satAdd(c, w.expr(lhs.X))
		case *ast.IndexExpr:
			c = satAdd(c, satAdd(w.expr(lhs.X), w.expr(lhs.Index)))
		}
	case *ast.CallExpr:
		if x.Recv != nil {
			c = satAdd(c, w.expr(x.Recv))
		}
		for _, a := range x.Args {
			c = satAdd(c, w.expr(a))
		}
		if x.Builtin {
			c = satAdd(c, interp.CostBuiltin)
		} else {
			c = satAdd(c, w.method(w.prog.CallSites[x.Site].Callee))
		}
	}
	return c
}
