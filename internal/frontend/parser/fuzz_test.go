package parser

import (
	"testing"

	"commute/internal/apps/src"
	"commute/internal/frontend/printer"
)

// FuzzParse checks that the parser never panics and always terminates
// on arbitrary input, and that whatever it accepts prints to source the
// parser accepts again and that prints the same (run with `go test
// -fuzz=FuzzParse` for active fuzzing; the seed corpus runs under plain
// `go test`).
func FuzzParse(f *testing.F) {
	seeds := []string{
		src.Graph,
		src.BarnesHut,
		src.Water,
		"",
		"class",
		"class a {",
		"class a { public: int x; };",
		"void a::m() { x = ; }",
		"const int N = ;",
		"class a : public {};",
		"void m() { for (;;) ; }",
		"void m() { if (x) } else { }",
		"}}}}{{{{",
		"class a { public: int v[; };",
		"void m() { x = dynamic_cast<>(y); }",
		"void m() { x = ((((1)))); }",
		"/* unterminated",
		"\"unterminated",
		"void m() { x = 1e; }",
		"void m() { a->b->c->d->e(); }",
		"void m() { x = -----1; }",
		"# preprocessor only",
		"class µ { public: int 日本; };",
		"class a { public: int x; }; void m() { if (x) int p, q; while (x) ; x = +-!x; }",
		"const int N 3; class c { public: double v[N], w; c *l, *r; void f(int a[], double b); };",
		"class a { public: int x; }; a *g; void m() { a * p; p = (a *) g; x = \"q\\\"\\n\"; x = 1.5e-3 + 4. ; }",
	}
	for _, s := range append(seeds, lookaheadAtEOF...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		// Must not panic or hang; errors are expected.
		file, err := Parse("fuzz.mc", input)
		if file == nil {
			t.Fatal("Parse returned a nil file")
		}
		if err != nil {
			return
		}
		printed := printer.File(file)
		again, err := Parse("printed.mc", printed)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\n%s", err, printed)
		}
		if reprinted := printer.File(again); reprinted != printed {
			t.Fatalf("printing is not a fixed point:\n%s\nthen\n%s", printed, reprinted)
		}
	})
}

// TestParserProgressOnGarbage: the recovery loop always advances.
func TestParserProgressOnGarbage(t *testing.T) {
	garbage := []string{
		"= = = = =",
		"class a { ; ; ; };",
		"void a::m() { ) ) ) }",
		"int int int",
		"(((((((((",
		"-> -> ->",
	}
	for _, g := range garbage {
		if _, err := Parse("garbage.mc", g); err == nil {
			t.Errorf("expected an error for %q", g)
		}
	}
}
