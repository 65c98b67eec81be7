package parser

import (
	"testing"

	"commute/internal/apps/src"
)

// FuzzParse checks that the parser never panics and always terminates
// on arbitrary input (run with `go test -fuzz=FuzzParse` for active
// fuzzing; the seed corpus runs under plain `go test`).
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
		_ = err
		if file == nil {
			t.Fatal("Parse returned a nil file")
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
