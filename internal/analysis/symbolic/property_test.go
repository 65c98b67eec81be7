package symbolic_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"commute/internal/analysis/symbolic"
)

// genExpr builds a random arithmetic expression over variables a..d and
// small constants, returning the expression and an evaluator.
func genExpr(r *rand.Rand, depth int) symbolic.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return symbolic.Num{V: float64(r.Intn(7) - 3), IsInt: true}
		case 1:
			return symbolic.Var{Name: string(rune('a' + r.Intn(4)))}
		default:
			return symbolic.Extent{ID: string(rune('x' + r.Intn(3)))}
		}
	}
	switch r.Intn(4) {
	case 0:
		return &symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{
			genExpr(r, depth-1), genExpr(r, depth-1),
		}}
	case 1:
		return &symbolic.Nary{Op: symbolic.OpMul, Args: []symbolic.Expr{
			genExpr(r, depth-1), genExpr(r, depth-1),
		}}
	case 2:
		return &symbolic.Neg{X: genExpr(r, depth-1)}
	default:
		return &symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{
			genExpr(r, depth-1),
			&symbolic.Neg{X: genExpr(r, depth-1)},
		}}
	}
}

// evalNumeric evaluates an expression under a variable assignment.
func evalNumeric(e symbolic.Expr, env map[string]float64) float64 {
	switch x := e.(type) {
	case symbolic.Num:
		return x.V
	case symbolic.Var:
		return env[x.Name]
	case symbolic.Extent:
		return env["ec:"+x.ID]
	case *symbolic.Neg:
		return -evalNumeric(x.X, env)
	case *symbolic.Nary:
		switch x.Op {
		case symbolic.OpAdd:
			s := 0.0
			for _, a := range x.Args {
				s += evalNumeric(a, env)
			}
			return s
		case symbolic.OpMul:
			p := 1.0
			for _, a := range x.Args {
				p *= evalNumeric(a, env)
			}
			return p
		}
	case *symbolic.Bin:
		l, r := evalNumeric(x.L, env), evalNumeric(x.R, env)
		if x.Op == symbolic.OpDiv {
			return l / r
		}
	}
	panic("unexpected node in numeric eval: " + e.Key())
}

// TestSimplifyPreservesValue: simplification never changes the value of
// a (division-free, integer-coefficient) arithmetic expression.
func TestSimplifyPreservesValue(t *testing.T) {
	tab := symbolic.NewTable()
	r := rand.New(rand.NewSource(42))
	env := map[string]float64{
		"a": 2, "b": -3, "c": 5, "d": 7,
		"ec:x": 11, "ec:y": -13, "ec:z": 17,
	}
	for i := 0; i < 500; i++ {
		e := genExpr(r, 4)
		want := evalNumeric(e, env)
		got := evalNumeric(symbolic.Simplify(tab, e), env)
		if math.Abs(want-got) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("iteration %d: Simplify changed value %g → %g\n  in:  %s\n  out: %s",
				i, want, got, e.Key(), symbolic.Simplify(tab, e).Key())
		}
	}
}

// TestSimplifyIdempotent: simplify(simplify(e)) == simplify(e).
func TestSimplifyIdempotent(t *testing.T) {
	tab := symbolic.NewTable()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := genExpr(r, 4)
		once := symbolic.Simplify(tab, e)
		twice := symbolic.Simplify(tab, once)
		if once.Key() != twice.Key() {
			t.Fatalf("iteration %d: not idempotent\n  once:  %s\n  twice: %s",
				i, once.Key(), twice.Key())
		}
	}
}

// TestCommutativeOperandOrderIrrelevant: permuting the operands of a
// commutative operator never changes the canonical form.
func TestCommutativeOperandOrderIrrelevant(t *testing.T) {
	tab := symbolic.NewTable()
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		n := 2 + r.Intn(4)
		args := make([]symbolic.Expr, n)
		for j := range args {
			args[j] = genExpr(r, 2)
		}
		op := symbolic.OpAdd
		if r.Intn(2) == 0 {
			op = symbolic.OpMul
		}
		fwd := symbolic.Simplify(tab, &symbolic.Nary{Op: op, Args: args})
		perm := make([]symbolic.Expr, n)
		for j, k := range r.Perm(n) {
			perm[j] = args[k]
		}
		rev := symbolic.Simplify(tab, &symbolic.Nary{Op: op, Args: perm})
		if fwd.Key() != rev.Key() {
			t.Fatalf("iteration %d: operand order changed canonical form\n  %s\n  %s",
				i, fwd.Key(), rev.Key())
		}
	}
}

// TestAccumChainsCommute: random accumulation sequences into array
// elements canonicalize independently of order.
func TestAccumChainsCommute(t *testing.T) {
	tab := symbolic.NewTable()
	type upd struct {
		Idx   uint8
		Delta int8
	}
	f := func(updates []upd, perm0 int64) bool {
		if len(updates) > 8 {
			updates = updates[:8]
		}
		base := symbolic.Var{Name: "arr"}
		build := func(order []int) symbolic.Expr {
			var e symbolic.Expr = base
			for _, k := range order {
				u := updates[k]
				e = &symbolic.ArrStore{
					Arr: e,
					Idx: symbolic.Num{V: float64(u.Idx % 4), IsInt: true},
					Val: &symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{
						&symbolic.ArrSel{Arr: e, Idx: symbolic.Num{V: float64(u.Idx % 4), IsInt: true}},
						symbolic.Num{V: float64(u.Delta), IsInt: true},
					}},
				}
			}
			return symbolic.Simplify(tab, e)
		}
		fwd := make([]int, len(updates))
		for i := range fwd {
			fwd[i] = i
		}
		rev := rand.New(rand.NewSource(perm0)).Perm(len(updates))
		return build(fwd).Key() == build(rev).Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBooleanTautologies via quick: x ∨ ¬x ⇒ true, x ∧ ¬x ⇒ false for
// arbitrary generated subexpressions.
func TestBooleanTautologies(t *testing.T) {
	tab := symbolic.NewTable()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x := &symbolic.Bin{Op: symbolic.OpLt, L: genExpr(r, 2), R: genExpr(r, 2)}
		or := symbolic.Simplify(tab, &symbolic.Nary{Op: symbolic.OpOr,
			Args: []symbolic.Expr{x, &symbolic.Not{X: x}}})
		if or.Key() != "true" {
			t.Fatalf("x∨¬x = %s for x=%s", or.Key(), x.Key())
		}
		and := symbolic.Simplify(tab, &symbolic.Nary{Op: symbolic.OpAnd,
			Args: []symbolic.Expr{x, &symbolic.Not{X: x}}})
		if and.Key() != "false" {
			t.Fatalf("x∧¬x = %s for x=%s", and.Key(), x.Key())
		}
	}
}
