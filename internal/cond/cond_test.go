package cond

import (
	"fmt"
	"go/format"
	"strings"
	"testing"

	"commute/internal/analysis/symbolic"
)

// modeEq builds the canonical guard atom of the conditional corpus
// app: ⟨ec:table.mode@global:H⟩ == 0.
func modeEq(t *testing.T) symbolic.Expr {
	t.Helper()
	return symbolic.Intern(&symbolic.Bin{
		Op: symbolic.OpEq,
		L:  symbolic.Extent{ID: "ec:table.mode@global:H"},
		R:  symbolic.Num{V: 0, IsInt: true},
	})
}

func TestConstructors(t *testing.T) {
	c := MkAtom(modeEq(t))
	if got := MkAnd(True{}, c, c).Key(); got != c.Key() {
		t.Errorf("MkAnd(true, c, c) = %s, want %s", got, c.Key())
	}
	if _, ok := MkAnd(c, False{}).(False); !ok {
		t.Errorf("MkAnd(c, false) should be False")
	}
	if _, ok := MkOr(c, True{}).(True); !ok {
		t.Errorf("MkOr(c, true) should be True")
	}
	if got := MkOr(False{}, c).Key(); got != c.Key() {
		t.Errorf("MkOr(false, c) = %s, want %s", got, c.Key())
	}
	if _, ok := MkAnd().(True); !ok {
		t.Errorf("empty MkAnd should be True")
	}
	if _, ok := MkOr().(False); !ok {
		t.Errorf("empty MkOr should be False")
	}
	// Nested conjunctions flatten and dedup by key.
	d := MkAtom(symbolic.Intern(&symbolic.Bin{
		Op: symbolic.OpLt,
		L:  symbolic.Extent{ID: "ec:table.cap@global:H"},
		R:  symbolic.Num{V: 8, IsInt: true},
	}))
	flat := MkAnd(MkAnd(c, d), c)
	and, ok := flat.(*And)
	if !ok || len(and.Ps) != 2 {
		t.Fatalf("MkAnd(MkAnd(c,d), c) = %s, want 2-way conjunction", flat.Key())
	}
}

func TestMkAtomFoldsBools(t *testing.T) {
	if _, ok := MkAtom(symbolic.Bool{V: true}).(True); !ok {
		t.Errorf("MkAtom(true) should fold to True")
	}
	if _, ok := MkAtom(symbolic.Bool{V: false}).(False); !ok {
		t.Errorf("MkAtom(false) should fold to False")
	}
}

func TestParseFieldRef(t *testing.T) {
	cases := []struct {
		id   string
		want FieldRef
		ok   bool
	}{
		{"ec:table.mode@global:H", FieldRef{"H", "table", "mode"}, true},
		{"ec:grid.cap@global:world", FieldRef{"world", "grid", "cap"}, true},
		{"ec:table.mode@this", FieldRef{}, false},
		{"ec:this→table.mode@global:H", FieldRef{}, false},
		{"ec:table.next.mode@global:H", FieldRef{}, false},
		{"ec:table.mode@1:p", FieldRef{}, false},
		{"aux3:ret", FieldRef{}, false},
		{"ec:tablemode@global:H", FieldRef{}, false},
		{"ec:table.mode@global:", FieldRef{}, false},
	}
	for _, c := range cases {
		got, ok := ParseFieldRef(c.id)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseFieldRef(%q) = %v, %v; want %v, %v", c.id, got, ok, c.want, c.ok)
		}
	}
}

// TestResidualCaseSplit exercises the synthesis on values shaped like
// the simplifier's output for a conditional update: the condition is
// factored inside an addition rather than at the root.
func TestResidualCaseSplit(t *testing.T) {
	c := modeEq(t)
	old := symbolic.Var{Name: "table.count"}
	v1 := symbolic.Var{Name: "1:v"}
	v2 := symbolic.Var{Name: "2:v"}
	// v12 = old + (c ? v1+v2 : v2); v21 = old + (c ? v1+v2 : v1)
	both := symbolic.Intern(&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{v1, v2}})
	v12 := symbolic.Simplify(symbolic.Intern(&symbolic.Nary{
		Op:   symbolic.OpAdd,
		Args: []symbolic.Expr{old, &symbolic.Cond{C: c, T: both, F: v2}},
	}))
	v21 := symbolic.Simplify(symbolic.Intern(&symbolic.Nary{
		Op:   symbolic.OpAdd,
		Args: []symbolic.Expr{old, &symbolic.Cond{C: c, T: both, F: v1}},
	}))
	if symbolic.Equal(v12, v21) {
		t.Fatalf("test wants unequal values, got both %s", v12.Key())
	}
	p := Residual(v12, v21)
	if p == nil {
		t.Fatal("Residual returned nil")
	}
	if _, ok := p.(False); ok {
		t.Fatalf("Residual = false, want a usable condition (got from %s vs %s)", v12.Key(), v21.Key())
	}
	// The weakened guard keeps exactly the c-true case: parameters are
	// not evaluable at region entry.
	g := Guard(p)
	if want := symbolic.Simplify(c).Key(); g.Key() != want {
		t.Fatalf("Guard(%s) = %s, want %s", p.Key(), g.Key(), want)
	}
	refs := Refs(g)
	if len(refs) != 1 || refs[0] != (FieldRef{"H", "table", "mode"}) {
		t.Fatalf("Refs = %v, want [{H table mode}]", refs)
	}
}

func TestResidualEqualValues(t *testing.T) {
	v := symbolic.Var{Name: "table.count"}
	if _, ok := Residual(v, v).(True); !ok {
		t.Errorf("Residual of equal values should be True")
	}
}

func TestResidualNoEmbeddedCond(t *testing.T) {
	a := symbolic.Var{Name: "1:v"}
	b := symbolic.Var{Name: "2:v"}
	p := Residual(a, b)
	at, ok := p.(Atom)
	if !ok {
		t.Fatalf("Residual(%s, %s) = %s, want equality atom", a.Key(), b.Key(), p.Key())
	}
	if !strings.Contains(at.E.Key(), "==") {
		t.Errorf("atom %s should be an equality", at.E.Key())
	}
	if _, ok := Guard(p).(False); !ok {
		t.Errorf("parameter equality should weaken to False, got %s", Guard(p).Key())
	}
}

func TestGuardableFragment(t *testing.T) {
	c := modeEq(t)
	if !Guardable(c) {
		t.Errorf("%s should be guardable", c.Key())
	}
	if Guardable(symbolic.Var{Name: "1:v"}) {
		t.Errorf("parameters are not guardable")
	}
	if Guardable(symbolic.Extent{ID: "aux3:ret"}) {
		t.Errorf("auxiliary results are not guardable")
	}
	div := symbolic.Intern(&symbolic.Bin{
		Op: symbolic.OpDiv,
		L:  symbolic.Extent{ID: "ec:table.mode@global:H"},
		R:  symbolic.Num{V: 2, IsInt: true},
	})
	if Guardable(div) {
		t.Errorf("division is excluded from the guardable fragment")
	}
	not := symbolic.MkNot(c)
	if !Guardable(not) {
		t.Errorf("negated comparisons are guardable")
	}
}

func testLeaf(vals map[FieldRef]Value) func(FieldRef) (Leaf, error) {
	return func(r FieldRef) (Leaf, error) {
		v, ok := vals[r]
		if !ok {
			return Leaf{}, fmt.Errorf("unbound ref %v", r)
		}
		return Leaf{Get: func() Value { return vals[r] }, Kind: v.K}, nil
	}
}

func TestCompileEval(t *testing.T) {
	c := modeEq(t)
	mode := FieldRef{"H", "table", "mode"}
	p := MkAtom(c)
	vals := map[FieldRef]Value{mode: IntVal(0)}
	f, err := Compile(p, testLeaf(vals))
	if err != nil {
		t.Fatal(err)
	}
	if !f() {
		t.Errorf("guard should hold with mode=0")
	}
	vals[mode] = IntVal(3)
	if f() {
		t.Errorf("guard should fail with mode=3")
	}

	// Mixed int/float comparison promotes.
	mix := MkAtom(symbolic.Intern(&symbolic.Bin{
		Op: symbolic.OpLt,
		L:  symbolic.Extent{ID: "ec:table.load@global:H"},
		R:  symbolic.Num{V: 2, IsInt: true},
	}))
	load := FieldRef{"H", "table", "load"}
	vals[load] = FloatVal(1.5)
	f, err = Compile(mix, testLeaf(vals))
	if err != nil {
		t.Fatal(err)
	}
	if !f() {
		t.Errorf("1.5 < 2 should hold")
	}
	vals[load] = FloatVal(2.5)
	if f() {
		t.Errorf("2.5 < 2 should fail")
	}

	// Conjunction and negation.
	both := MkAnd(MkAtom(symbolic.MkNot(c)), mix)
	vals[mode] = IntVal(1)
	vals[load] = FloatVal(0.5)
	f, err = Compile(both, testLeaf(vals))
	if err != nil {
		t.Fatal(err)
	}
	if !f() {
		t.Errorf("!(mode==0) && load<2 should hold with mode=1, load=0.5")
	}

	// Unbound leaves are compile-time errors.
	if _, err := Compile(MkAtom(symbolic.Intern(&symbolic.Bin{
		Op: symbolic.OpEq,
		L:  symbolic.Extent{ID: "ec:other.x@global:Z"},
		R:  symbolic.Num{V: 0, IsInt: true},
	})), testLeaf(vals)); err == nil {
		t.Errorf("unbound ref should fail compilation")
	}
}

// TestEmitGo: a guard is emitted as the condition of an if statement,
// already in gofmt's form. Every case is checked both ways: against the
// text gofmt gives the fully parenthesised spelling, and as a fixed
// point of the formatter inside `if <guard> {`.
func TestEmitGo(t *testing.T) {
	leaf := func(r FieldRef) (GoLeaf, error) {
		if r.Global != "H" || r.Class != "table" {
			return GoLeaf{}, fmt.Errorf("unbound ref %v", r)
		}
		switch r.Field {
		case "mode", "bias":
			return GoLeaf{Expr: "G_H.F_" + r.Field, Kind: KInt}, nil
		case "scale":
			return GoLeaf{Expr: "G_H.F_scale", Kind: KFloat}, nil
		case "on":
			return GoLeaf{Expr: "G_H.F_on", Kind: KBool}, nil
		}
		return GoLeaf{}, fmt.Errorf("unbound ref %v", r)
	}
	field := func(name string) symbolic.Expr { return symbolic.Extent{ID: "ec:table." + name + "@global:H"} }
	num := func(v float64, isInt bool) symbolic.Expr { return symbolic.Num{V: v, IsInt: isInt} }
	bin := func(op symbolic.Op, l, r symbolic.Expr) symbolic.Expr { return &symbolic.Bin{Op: op, L: l, R: r} }
	nary := func(op symbolic.Op, args ...symbolic.Expr) symbolic.Expr { return &symbolic.Nary{Op: op, Args: args} }
	mode, bias, scale, on := field("mode"), field("bias"), field("scale"), field("on")
	modeIs0 := bin(symbolic.OpEq, mode, num(0, true))
	atom := func(e symbolic.Expr) Pred { return Atom{E: e} }

	for _, tc := range []struct {
		name string
		p    Pred
		want string
	}{
		{"true", True{}, "true"},
		{"false", False{}, "false"},
		{"nil", nil, "false"},
		{"comparison", atom(modeIs0), "G_H.F_mode == 0"},
		{"bool leaf", atom(on), "G_H.F_on"},
		{"not", atom(&symbolic.Not{X: modeIs0}), "!(G_H.F_mode == 0)"},
		{"or of atom and not", MkOr(atom(modeIs0), atom(symbolic.MkNot(modeIs0))),
			"(G_H.F_mode == 0) || (!(G_H.F_mode == 0))"},
		{"and of three", &And{Ps: []Pred{atom(modeIs0), atom(on), atom(bin(symbolic.OpLt, bias, num(8, true)))}},
			"(G_H.F_mode == 0) && G_H.F_on && (G_H.F_bias < 8)"},
		{"or of ands", &Or{Ps: []Pred{
			&And{Ps: []Pred{atom(modeIs0), atom(on)}},
			&And{Ps: []Pred{atom(&symbolic.Not{X: on}), atom(bin(symbolic.OpGe, bias, mode))}},
		}}, "((G_H.F_mode == 0) && G_H.F_on) || ((!G_H.F_on) && (G_H.F_bias >= G_H.F_mode))"},
		{"int arithmetic", atom(bin(symbolic.OpLt, nary(symbolic.OpAdd, nary(symbolic.OpMul, num(2, true), bias), mode), num(10, true))),
			"((2 * G_H.F_bias) + G_H.F_mode) < 10"},
		{"neg", atom(bin(symbolic.OpLe, &symbolic.Neg{X: nary(symbolic.OpAdd, mode, bias)}, &symbolic.Neg{X: scale})),
			"float64((-(G_H.F_mode + G_H.F_bias))) <= (-G_H.F_scale)"},
		{"mixed arithmetic promotes through float64 and fences FMA",
			atom(bin(symbolic.OpGt, nary(symbolic.OpAdd, nary(symbolic.OpMul, mode, num(0.5, false)), scale, bias), num(1, true))),
			"float64(float64(float64(float64(G_H.F_mode)*0.5)+G_H.F_scale)+float64(G_H.F_bias)) > float64(1)"},
		{"float product of an int sum", atom(bin(symbolic.OpNe, nary(symbolic.OpMul, scale, nary(symbolic.OpAdd, mode, bias, num(-1, true))), scale)),
			"float64(G_H.F_scale*float64(((G_H.F_mode+G_H.F_bias)+-1))) != G_H.F_scale"},
		{"nary and/or inside an atom", atom(nary(symbolic.OpOr, nary(symbolic.OpAnd, on, modeIs0), bin(symbolic.OpEq, on, symbolic.Bool{V: false}))),
			"(G_H.F_on && (G_H.F_mode == 0)) || (G_H.F_on == false)"},
	} {
		code, err := EmitGo(tc.p, leaf)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if code != tc.want {
			t.Errorf("%s: EmitGo = %q, want %q", tc.name, code, tc.want)
		}
		src := "package p\n\nfunc f() {\n\tif " + code + " {\n\t}\n}\n"
		if fmted, err := format.Source([]byte(src)); err != nil || string(fmted) != src {
			t.Errorf("%s: `if %s {` is not a gofmt fixed point (err %v):\n%s", tc.name, code, err, fmted)
		}
	}
	if _, err := EmitGo(atom(bin(symbolic.OpEq, field("other"), num(0, true))), leaf); err == nil {
		t.Error("unbound ref should fail emission")
	}
	if _, err := EmitGo(atom(mode), leaf); err == nil {
		t.Error("int-valued atom should fail emission")
	}
}

func TestRenderNil(t *testing.T) {
	if Render(nil) != "" {
		t.Errorf("Render(nil) should be empty")
	}
	p := MkOr(MkAtom(modeEq(t)))
	if Render(p) != p.Key() {
		t.Errorf("Render should match Key")
	}
}
