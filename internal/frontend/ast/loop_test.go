package ast_test

import (
	"fmt"
	"testing"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/printer"
	"commute/internal/frontend/types"
)

// firstFor parses and checks a method `void c::m(int p)` with locals
// int i, j and the given statements, and returns its first for loop.
func firstFor(t *testing.T, stmts string) *ast.ForStmt {
	t.Helper()
	src := fmt.Sprintf(`
class c {
public:
  int f;
  int get();
  void m(int p);
};
int c::get() { return f; }
void c::m(int p) {
  int i;
  int j;
  %s
}
`, stmts)
	file, err := parser.Parse("loop.mc", src)
	if err != nil {
		t.Fatalf("%s: %v", stmts, err)
	}
	if _, err := types.Check(file); err != nil {
		t.Fatalf("%s: %v", stmts, err)
	}
	var fs *ast.ForStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if x, ok := n.(*ast.ForStmt); ok && fs == nil {
			fs = x
		}
		return fs == nil
	})
	if fs == nil {
		t.Fatalf("%s: no for loop", stmts)
	}
	return fs
}

// TestMatchCountedLoop: every spelling of the counted header yields the
// same four facts, and everything else is refused.
func TestMatchCountedLoop(t *testing.T) {
	for _, tc := range []struct {
		header string
		v      string
		from   string // "" for none
		bound  string
		step   int64
	}{
		{"i = 0; i < f; i += 1", "i", "0", "f", 1},
		{"i = 0; i < f; i++", "i", "0", "f", 1},
		{"i = 0; i < f; i = i + 1", "i", "0", "f", 1},
		{"i = j * 2; i < f - p; i += 3", "i", "j * 2", "f - p", 3},
		{"int q = 1; q < 10; q += 2", "q", "1", "10", 2},
		{"int q; q < 10; q += 1", "q", "", "10", 1},
		{"p = 0; p < f; p += 1", "p", "0", "f", 1},         // a parameter counts
		{"i = 0; i < get(); i += 1", "i", "0", "get()", 1}, // purity is the caller's question
	} {
		h, ok := ast.MatchCountedLoop(firstFor(t, "for ("+tc.header+") { f = f + 1; }"))
		if !ok {
			t.Errorf("%s: not matched", tc.header)
			continue
		}
		from := ""
		if h.From != nil {
			from = printer.Expr(h.From)
		}
		if h.Var.Name != tc.v || from != tc.from || printer.Expr(h.Bound) != tc.bound || h.Step != tc.step {
			t.Errorf("%s: got v=%s from=%q bound=%q step=%d", tc.header, h.Var.Name, from, printer.Expr(h.Bound), h.Step)
		}
	}
	for _, header := range []string{
		"i += 2; i < f; i += 1",      // compound init
		"i = 0; i <= f; i += 1",      // not <
		"i = 0; f > i; i += 1",       // variable on the right
		"i = 0; i < f; i += 0",       // step not positive
		"i = 0; i < f; i += j",       // step not a literal
		"i = 0; i < f; i -= 1",       // counts down
		"i = 0; i < f; i = i * 2",    // not an addition
		"i = 0; i < f; i = 1 + i",    // not v + s
		"i = 0; i < f; j += 1",       // post steps another variable
		"j = 0; i < f; i += 1",       // init sets another variable
		"f = 0; f < 10; f += 1",      // a field is no frame variable
		"i = 0; i < f; ",             // no post
		"; i < f; i += 1",            // no init
		"i = 0; ; i += 1",            // no condition
		"i = 0; i < f && j < f; i++", // compound condition
	} {
		if h, ok := ast.MatchCountedLoop(firstFor(t, "for ("+header+") { f = f + 1; }")); ok {
			t.Errorf("%s: matched as %+v", header, h)
		}
	}
}

// TestPureAndAssignedVars: the two body/bound questions the matcher's
// users ask.
func TestPureAndAssignedVars(t *testing.T) {
	fs := firstFor(t, `for (i = 0; i < f; i += 1) {
    int q = i;
    if (q > 2) { j = q; } else { f = 3; }
    p += get() + (j = 1);
  }`)
	got := ast.AssignedVars(fs.Body)
	if len(got) != 3 || !got["q"] || !got["j"] || !got["p"] {
		t.Errorf("AssignedVars = %v, want q, j, p (a field is not a frame variable)", got)
	}
	for src, want := range map[string]bool{
		"i = f - p * 2;":   true,
		"i = get();":       false,
		"i = (j = 2) + 1;": false,
	} {
		asn := firstFor(t, "for (i = 0; i < 1; i++) { "+src+" }").Body.(*ast.Block).Stmts[0].(*ast.ExprStmt).X.(*ast.Assign)
		if ast.Pure(asn.RHS) != want {
			t.Errorf("Pure(%s) = %t, want %t", printer.Expr(asn.RHS), !want, want)
		}
	}
}
