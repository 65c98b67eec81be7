package symbolic_test

import (
	"strings"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/analysis/extent"
	"commute/internal/analysis/symbolic"
	"commute/internal/apps/src"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

func setup(t *testing.T, source, root string) (*types.Program, *symbolic.Env) {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	a := effects.NewAnalyzer(prog)
	m := prog.MethodByFullName(root)
	if m == nil {
		t.Fatalf("method %s not found", root)
	}
	ec := extent.Constants(a, m)
	res := extent.Compute(a, m, ec)
	aux := make(map[int]bool)
	for _, c := range res.Aux {
		aux[c.ID] = true
	}
	return prog, symbolic.NewEnv(prog, ec, aux)
}

// TestTable1VisitSum reproduces Table 1: the new values of sum under
// both execution orders of r->visit(p1); r->visit(p2) simplify to the
// same expression.
func TestTable1VisitSum(t *testing.T) {
	prog, env := setup(t, src.Graph, "builder::traverse")
	visit := prog.MethodByFullName("graph::visit")

	r12, err := symbolic.ExecutePair(visit, visit, "1", "2", env)
	if err != nil {
		t.Fatalf("execute 1;2: %v", err)
	}
	r21, err := symbolic.ExecutePair(visit, visit, "2", "1", env)
	if err != nil {
		t.Fatalf("execute 2;1: %v", err)
	}
	c12, c21 := r12.Canonical(), r21.Canonical()

	// (sum+p1)+p2 and (sum+p2)+p1 both canonicalize to a sorted n-ary sum.
	s12 := c12.IVars["graph.sum"]
	s21 := c21.IVars["graph.sum"]
	if s12 == nil || s21 == nil {
		t.Fatalf("sum bindings missing: %v / %v", c12.IVars, c21.IVars)
	}
	if !symbolic.Equal(s12, s21) {
		t.Errorf("sum differs: %s vs %s", s12.Key(), s21.Key())
	}
	for _, part := range []string{"iv:graph.sum", "1:p", "2:p"} {
		if !strings.Contains(s12.Key(), part) {
			t.Errorf("sum %s should mention %s", s12.Key(), part)
		}
	}

	// mark converges to TRUE in both orders (the marking protocol).
	if !symbolic.Equal(c12.IVars["graph.mark"], c21.IVars["graph.mark"]) {
		t.Errorf("mark differs: %s vs %s",
			c12.IVars["graph.mark"].Key(), c21.IVars["graph.mark"].Key())
	}

	// The multisets of invoked operations agree: the first visit to an
	// unmarked node generates both recursive calls, the second none.
	if !symbolic.EqualMultisets(c12.Invoked, c21.Invoked) {
		t.Errorf("multisets differ:\n %s\n %s", c12.Invoked, c21.Invoked)
	}
	if len(c12.Invoked) != 2 {
		t.Errorf("invoked = %s, want 2 guarded visits", c12.Invoked)
	}
}

// TestFigure13GravsubPair reproduces Figures 13 and 15: both orders of
// gravsub yield phi + (-const1) + (-const2) and matching vecAdd
// invocation multisets.
func TestFigure13GravsubPair(t *testing.T) {
	prog, env := setup(t, src.BarnesHut, "nbody::computeForces")
	gs := prog.MethodByFullName("body::gravsub")

	r12, err := symbolic.ExecutePair(gs, gs, "1", "2", env)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	r21, err := symbolic.ExecutePair(gs, gs, "2", "1", env)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	c12, c21 := r12.Canonical(), r21.Canonical()

	phi12 := c12.IVars["body.phi"]
	phi21 := c21.IVars["body.phi"]
	if !symbolic.Equal(phi12, phi21) {
		t.Errorf("phi differs: %s vs %s", phi12.Key(), phi21.Key())
	}
	// The canonical form is an n-ary sum of the old phi and two negated
	// extent constants.
	k := phi12.Key()
	if !strings.Contains(k, "iv:body.phi") || strings.Count(k, "aux") != 2 {
		t.Errorf("unexpected phi form: %s", k)
	}

	if !symbolic.EqualMultisets(c12.Invoked, c21.Invoked) {
		t.Errorf("vecAdd multisets differ:\n %s\n %s", c12.Invoked, c21.Invoked)
	}
	if len(c12.Invoked) != 2 {
		t.Errorf("invoked = %s, want 2 vecAdds", c12.Invoked)
	}
	for _, mx := range c12.Invoked {
		if mx.Method != "vector::vecAdd" {
			t.Errorf("invoked %s, want vector::vecAdd", mx.Method)
		}
		if mx.Recv.Key() != "this.acc" {
			t.Errorf("receiver %s, want this.acc", mx.Recv.Key())
		}
	}
}

// TestFigure14VecAddPair reproduces Figures 14 and 16: the val array
// binding canonicalizes to the same nested elementwise update in both
// orders.
func TestFigure14VecAddPair(t *testing.T) {
	prog, env := setup(t, src.BarnesHut, "nbody::computeForces")
	va := prog.MethodByFullName("vector::vecAdd")

	r12, err := symbolic.ExecutePair(va, va, "1", "2", env)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	r21, err := symbolic.ExecutePair(va, va, "2", "1", env)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	c12, c21 := r12.Canonical(), r21.Canonical()

	v12 := c12.IVars["vector.val"]
	v21 := c21.IVars["vector.val"]
	if v12 == nil || v21 == nil {
		t.Fatalf("val bindings missing")
	}
	if !symbolic.Equal(v12, v21) {
		t.Errorf("val differs: %s vs %s", v12.Key(), v21.Key())
	}
	k := v12.Key()
	if !strings.HasPrefix(k, "upd(") || !strings.Contains(k, "iv:vector.val") {
		t.Errorf("val should be an elementwise update chain: %s", k)
	}
	if len(c12.Invoked) != 0 {
		t.Errorf("vecAdd should invoke nothing, got %s", c12.Invoked)
	}
}

func TestSimplifyRules(t *testing.T) {
	n := func(v float64) symbolic.Expr { return symbolic.Num{V: v} }
	i := func(v int64) symbolic.Expr { return symbolic.Num{V: float64(v), IsInt: true} }
	x := symbolic.Var{Name: "x"}
	y := symbolic.Var{Name: "y"}

	cases := []struct {
		in   symbolic.Expr
		want string
	}{
		// x - y ⇒ x + (-y), sorted n-ary.
		{&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{x, &symbolic.Neg{X: y}}}, "((-y) + x)"},
		// Double negation.
		{&symbolic.Neg{X: &symbolic.Neg{X: x}}, "x"},
		// Constant folding and identity elimination.
		{&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{i(2), x, i(3)}}, "(5 + x)"},
		{&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{i(0), x}}, "x"},
		{&symbolic.Nary{Op: symbolic.OpMul, Args: []symbolic.Expr{i(1), x}}, "x"},
		{&symbolic.Nary{Op: symbolic.OpMul, Args: []symbolic.Expr{i(0), x}}, "0"},
		// Flattening: (x + (y + 1)) ⇒ (1 + x + y).
		{&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{x,
			&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{y, i(1)}}}}, "(1 + x + y)"},
		// Distribution: 2 * (x + y) ⇒ ((2 * x) + (2 * y)).
		{&symbolic.Nary{Op: symbolic.OpMul, Args: []symbolic.Expr{i(2),
			&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{x, y}}}}, "((2 * x) + (2 * y))"},
		// Boolean complement: x || !x ⇒ true.
		{&symbolic.Nary{Op: symbolic.OpOr, Args: []symbolic.Expr{x, &symbolic.Not{X: x}}}, "true"},
		{&symbolic.Nary{Op: symbolic.OpAnd, Args: []symbolic.Expr{x, &symbolic.Not{X: x}}}, "false"},
		// Idempotence.
		{&symbolic.Nary{Op: symbolic.OpAnd, Args: []symbolic.Expr{x, x}}, "x"},
		// Conditional rules.
		{&symbolic.Cond{C: symbolic.Bool{V: true}, T: x, F: y}, "x"},
		{&symbolic.Cond{C: x, T: y, F: y}, "y"},
		{&symbolic.Cond{C: x, T: symbolic.Bool{V: true}, F: &symbolic.Not{X: x}}, "true"},
		// Comparison canonicalization: y > x ⇒ x < y; ¬(a<b) ⇒ a>=b ⇒ ...
		{&symbolic.Bin{Op: symbolic.OpGt, L: y, R: x}, "(x < y)"},
		{&symbolic.Not{X: &symbolic.Bin{Op: symbolic.OpLt, L: x, R: y}}, "(y <= x)"},
		// Numeric comparison folding.
		{&symbolic.Bin{Op: symbolic.OpLt, L: n(1), R: n(2)}, "true"},
		// Division by one.
		{&symbolic.Bin{Op: symbolic.OpDiv, L: x, R: i(1)}, "x"},
		// Array store shadowing and reordering.
		{&symbolic.ArrStore{
			Arr: &symbolic.ArrStore{Arr: x, Idx: i(1), Val: y},
			Idx: i(0), Val: x,
		}, "store(store(x, 0, x), 1, y)"},
		{&symbolic.ArrSel{
			Arr: &symbolic.ArrStore{Arr: x, Idx: i(2), Val: y},
			Idx: i(2),
		}, "y"},
		{&symbolic.ArrSel{Arr: &symbolic.ArrFill{Elem: y}, Idx: x}, "y"},
	}
	// A table interns what the rules build; no table builds it uninterned.
	for _, tab := range []*symbolic.Table{symbolic.NewTable(), nil} {
		for _, tc := range cases {
			got := symbolic.Simplify(tab, tc.in).Key()
			if got != tc.want {
				t.Errorf("Simplify(%s) = %s, want %s (table %v)", tc.in.Key(), got, tc.want, tab != nil)
			}
		}
	}
}

func TestArrUpdChainCanonicalization(t *testing.T) {
	tab := symbolic.NewTable()
	a := symbolic.Var{Name: "a"}
	c1 := symbolic.Extent{ID: "c1"}
	c2 := symbolic.Extent{ID: "c2"}
	ab := symbolic.Simplify(tab, &symbolic.ArrUpd{
		Arr:     &symbolic.ArrUpd{Arr: a, Op: symbolic.OpAdd, Operand: c1},
		Op:      symbolic.OpAdd,
		Operand: c2,
	})
	ba := symbolic.Simplify(tab, &symbolic.ArrUpd{
		Arr:     &symbolic.ArrUpd{Arr: a, Op: symbolic.OpAdd, Operand: c2},
		Op:      symbolic.OpAdd,
		Operand: c1,
	})
	if !symbolic.Equal(ab, ba) {
		t.Errorf("update chains should canonicalize equal: %s vs %s", ab.Key(), ba.Key())
	}
	// Mixed operators do not reorder.
	mixed1 := symbolic.Simplify(tab, &symbolic.ArrUpd{
		Arr:     &symbolic.ArrUpd{Arr: a, Op: symbolic.OpAdd, Operand: c1},
		Op:      symbolic.OpMul,
		Operand: c2,
	})
	mixed2 := symbolic.Simplify(tab, &symbolic.ArrUpd{
		Arr:     &symbolic.ArrUpd{Arr: a, Op: symbolic.OpMul, Operand: c2},
		Op:      symbolic.OpAdd,
		Operand: c1,
	})
	if symbolic.Equal(mixed1, mixed2) {
		t.Error("mixed-operator update chains must not compare equal")
	}
}
