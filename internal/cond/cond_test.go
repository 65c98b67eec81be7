package cond

import (
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
	var refs []FieldRef
	_, err := Check(g, func(r FieldRef) (Kind, bool) {
		refs = append(refs, r)
		return KInt, true
	})
	if err != nil || len(refs) != 1 || refs[0] != (FieldRef{"H", "table", "mode"}) {
		t.Fatalf("guard reads %v (check: %v), want [{H table mode}]", refs, err)
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

// The guard table: one table of guards that TestCompileEval holds to the
// closure and TestEmitGo to the Go text. A row pins the Go text — in
// gofmt's form, a fixed point of the formatter inside `if <guard> {` —
// and the closure's truth value in each of guardStates. The rows the
// check refuses name why.
type guardRow struct {
	name string
	p    Pred
	// goText is the Go rendering and holds the closure's value in each
	// state, T or F; refused says why the check refuses the guard.
	goText, holds, refused string
}

var guardKinds = map[string]Kind{"mode": KInt, "bias": KInt, "scale": KFloat, "on": KBool}

var guardStates = []map[string]Value{
	{"mode": IntVal(0), "bias": IntVal(0), "scale": FloatVal(0), "on": BoolVal(false)},
	{"mode": IntVal(1), "bias": IntVal(8), "scale": FloatVal(2), "on": BoolVal(true)},
	{"mode": IntVal(0), "bias": IntVal(5), "scale": FloatVal(-1.5), "on": BoolVal(true)},
	{"mode": IntVal(-2), "bias": IntVal(9), "scale": FloatVal(9.5), "on": BoolVal(false)},
}

func guardRows() []guardRow {
	field := func(name string) symbolic.Expr { return symbolic.Extent{ID: "ec:table." + name + "@global:H"} }
	num := func(v float64, isInt bool) symbolic.Expr { return symbolic.Num{V: v, IsInt: isInt} }
	bin := func(op symbolic.Op, l, r symbolic.Expr) symbolic.Expr { return &symbolic.Bin{Op: op, L: l, R: r} }
	nary := func(op symbolic.Op, args ...symbolic.Expr) symbolic.Expr { return &symbolic.Nary{Op: op, Args: args} }
	mode, bias, scale, on := field("mode"), field("bias"), field("scale"), field("on")
	modeIs0 := bin(symbolic.OpEq, mode, num(0, true))
	atom := func(e symbolic.Expr) Pred { return Atom{E: e} }

	return []guardRow{
		{name: "true", p: True{}, goText: "true", holds: "TTTT"},
		{name: "false", p: False{}, goText: "false", holds: "FFFF"},
		{name: "nil", p: nil, goText: "false", holds: "FFFF"},
		{name: "comparison", p: atom(modeIs0), goText: "G_H.F_mode == 0", holds: "TFTF"},
		{name: "bool leaf", p: atom(on), goText: "G_H.F_on", holds: "FTTF"},
		{name: "not", p: atom(&symbolic.Not{X: modeIs0}), goText: "!(G_H.F_mode == 0)", holds: "FTFT"},
		{name: "mixed comparison promotes", p: atom(bin(symbolic.OpLt, scale, num(2, true))),
			goText: "G_H.F_scale < float64(2)", holds: "TFTF"},
		{name: "or of atom and not", p: MkOr(atom(modeIs0), atom(symbolic.MkNot(modeIs0))),
			goText: "(G_H.F_mode == 0) || (!(G_H.F_mode == 0))", holds: "TTTT"},
		{name: "and of three", p: &And{Ps: []Pred{atom(modeIs0), atom(on), atom(bin(symbolic.OpLt, bias, num(8, true)))}},
			goText: "(G_H.F_mode == 0) && G_H.F_on && (G_H.F_bias < 8)", holds: "FFTF"},
		{name: "or of ands", p: &Or{Ps: []Pred{
			&And{Ps: []Pred{atom(modeIs0), atom(on)}},
			&And{Ps: []Pred{atom(&symbolic.Not{X: on}), atom(bin(symbolic.OpGe, bias, mode))}},
		}}, goText: "((G_H.F_mode == 0) && G_H.F_on) || ((!G_H.F_on) && (G_H.F_bias >= G_H.F_mode))", holds: "TFTT"},
		{name: "int arithmetic", p: atom(bin(symbolic.OpLt, nary(symbolic.OpAdd, nary(symbolic.OpMul, num(2, true), bias), mode), num(10, true))),
			goText: "((2 * G_H.F_bias) + G_H.F_mode) < 10", holds: "TFFF"},
		{name: "neg", p: atom(bin(symbolic.OpLe, &symbolic.Neg{X: nary(symbolic.OpAdd, mode, bias)}, &symbolic.Neg{X: scale})),
			goText: "float64((-(G_H.F_mode + G_H.F_bias))) <= (-G_H.F_scale)", holds: "TTTF"},
		{name: "mixed arithmetic promotes through float64 and fences FMA",
			p:      atom(bin(symbolic.OpGt, nary(symbolic.OpAdd, nary(symbolic.OpMul, mode, num(0.5, false)), scale, bias), num(1, true))),
			goText: "float64(float64(float64(float64(G_H.F_mode)*0.5)+G_H.F_scale)+float64(G_H.F_bias)) > float64(1)", holds: "FTTT"},
		{name: "float product of an int sum", p: atom(bin(symbolic.OpNe, nary(symbolic.OpMul, scale, nary(symbolic.OpAdd, mode, bias, num(-1, true))), scale)),
			goText: "float64(G_H.F_scale*float64(((G_H.F_mode+G_H.F_bias)+-1))) != G_H.F_scale", holds: "FTTT"},
		{name: "nary and/or inside an atom", p: atom(nary(symbolic.OpOr, nary(symbolic.OpAnd, on, modeIs0), bin(symbolic.OpEq, on, symbolic.Bool{V: false}))),
			goText: "(G_H.F_on && (G_H.F_mode == 0)) || (G_H.F_on == false)", holds: "TFTT"},

		{name: "int-valued atom", p: atom(mode), refused: "is int-valued, want bool"},
		{name: "bool operand of +", p: atom(bin(symbolic.OpEq, nary(symbolic.OpAdd, on, mode), num(1, true))), refused: "over bool/int operands"},
		{name: "< over bools", p: atom(bin(symbolic.OpLt, on, on)), refused: "over bool/bool operands"},
		{name: "unbound leaf", p: atom(bin(symbolic.OpEq, field("other"), num(0, true))), refused: "table.other@global:H is not an int, double or bool field"},
		{name: "division", p: atom(bin(symbolic.OpEq, bin(symbolic.OpDiv, mode, num(2, true)), num(0, true))), refused: "outside the guardable fragment"},
	}
}

// checkGuards runs Check on every row of the guard table, holds the
// refused rows to their reasons, and hands each accepted guard to f.
func checkGuards(t *testing.T, f func(row guardRow, g *Checked)) {
	t.Helper()
	kind := func(r FieldRef) (Kind, bool) {
		k, ok := guardKinds[r.Field]
		return k, ok && r.Global == "H" && r.Class == "table"
	}
	for _, row := range guardRows() {
		g, err := Check(row.p, kind)
		switch {
		case row.refused != "":
			if err == nil || !strings.Contains(err.Error(), row.refused) {
				t.Errorf("%s: Check = %v, want an error saying %q", row.name, err, row.refused)
			}
		case err != nil:
			t.Errorf("%s: %v", row.name, err)
		default:
			f(row, g)
		}
	}
}

// TestCompileEval: the closure of every accepted guard reads its leaves
// at the kinds Check gave them and holds exactly in the states its row
// says.
func TestCompileEval(t *testing.T) {
	checkGuards(t, func(row guardRow, g *Checked) {
		var state map[string]Value
		holds := g.Func(func(r FieldRef, k Kind) func() Value {
			if guardKinds[r.Field] != k {
				t.Errorf("%s: leaf %s bound at %s, checked %s", row.name, r.Field, k, guardKinds[r.Field])
			}
			return func() Value { return state[r.Field] }
		})
		got := ""
		for _, state = range guardStates {
			got += map[bool]string{true: "T", false: "F"}[holds()]
		}
		if got != row.holds {
			t.Errorf("%s: holds in the four states %s, want %s", row.name, got, row.holds)
		}
	})
}

// TestEmitGo: every accepted guard is emitted as the condition of an if
// statement, already in gofmt's form — the text its row pins, and a fixed
// point of the formatter inside `if <guard> {`.
func TestEmitGo(t *testing.T) {
	checkGuards(t, func(row guardRow, g *Checked) {
		code := g.Go(func(r FieldRef) string { return "G_H.F_" + r.Field })
		if code != row.goText {
			t.Errorf("%s: Go = %q, want %q", row.name, code, row.goText)
			return
		}
		src := "package p\n\nfunc f() {\n\tif " + code + " {\n\t}\n}\n"
		if fmted, err := format.Source([]byte(src)); err != nil || string(fmted) != src {
			t.Errorf("%s: `if %s {` is not a gofmt fixed point (err %v):\n%s", row.name, code, err, fmted)
		}
	})
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
