package lexer

import (
	"testing"

	"commute/internal/frontend/token"
)

func kinds(ts []token.Token) []token.Kind {
	out := make([]token.Kind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func TestOperatorsAndDelimiters(t *testing.T) {
	src := `+ - * / % = += -= *= /= ++ -- == != < > <= >= && || ! -> . , ; : :: ( ) { } [ ]`
	want := []token.Kind{
		token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT,
		token.ASSIGN, token.PLUSEQ, token.MINUSEQ, token.STAREQ, token.SLASHEQ,
		token.INC, token.DEC, token.EQ, token.NEQ, token.LT, token.GT,
		token.LEQ, token.GEQ, token.AND, token.OR, token.NOT, token.ARROW,
		token.DOT, token.COMMA, token.SEMI, token.COLON, token.SCOPE,
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACKET, token.RBRACKET, token.EOF,
	}
	got := kinds(New(src).All())
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdentifiers(t *testing.T) {
	src := `class graph visit TRUE FALSE NULL this new dynamic_cast int double boolean void if else for while return const public private`
	lx := New(src)
	toks := lx.All()
	wantKinds := []token.Kind{
		token.KWCLASS, token.IDENT, token.IDENT, token.KWTRUE, token.KWFALSE,
		token.KWNULL, token.KWTHIS, token.KWNEW, token.KWCAST, token.KWINT,
		token.KWDOUBLE, token.KWBOOLEAN, token.KWVOID, token.KWIF, token.KWELSE,
		token.KWFOR, token.KWWHILE, token.KWRETURN, token.KWCONST,
		token.KWPUBLIC, token.KWPRIVATE, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(wantKinds) {
		t.Fatalf("got %d tokens, want %d", len(got), len(wantKinds))
	}
	for i := range wantKinds {
		if got[i] != wantKinds[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], wantKinds[i])
		}
	}
	if toks[1].Lit != "graph" || toks[2].Lit != "visit" {
		t.Errorf("identifier literals wrong: %q %q", toks[1].Lit, toks[2].Lit)
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		lit  string
	}{
		{"123", token.INTLIT, "123"},
		{"0", token.INTLIT, "0"},
		{"1.5", token.FLOATLIT, "1.5"},
		{"4.0", token.FLOATLIT, "4.0"},
		{"1e10", token.FLOATLIT, "1e10"},
		{"2.5e-3", token.FLOATLIT, "2.5e-3"},
		{"7.5E+2", token.FLOATLIT, "7.5E+2"},
	}
	for _, tc := range cases {
		toks := New(tc.src).All()
		if toks[0].Kind != tc.kind || toks[0].Lit != tc.lit {
			t.Errorf("%q: got %s %q, want %s %q", tc.src, toks[0].Kind, toks[0].Lit, tc.kind, tc.lit)
		}
	}
}

func TestComments(t *testing.T) {
	src := "a // line comment\n b /* block\ncomment */ c # preprocessor\n d"
	toks := New(src).All()
	var lits []string
	for _, tk := range toks[:len(toks)-1] {
		lits = append(lits, tk.Lit)
	}
	want := []string{"a", "b", "c", "d"}
	if len(lits) != len(want) {
		t.Fatalf("got %v, want %v", lits, want)
	}
	for i := range want {
		if lits[i] != want[i] {
			t.Errorf("token %d: got %q, want %q", i, lits[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	src := "ab\ncd e"
	toks := New(src).All()
	wants := []token.Pos{{Line: 1, Col: 1}, {Line: 2, Col: 1}, {Line: 2, Col: 4}}
	for i, w := range wants {
		if toks[i].Pos != w {
			t.Errorf("token %d position: got %v, want %v", i, toks[i].Pos, w)
		}
	}
}

// TestPositionsAfterMalformedExponent: `1e` and `1e+` are a number, a
// malformed-exponent error, and the 'e' and the sign scanned again as
// tokens of their own, each at its own column.
func TestPositionsAfterMalformedExponent(t *testing.T) {
	for _, tc := range []struct {
		src   string
		kinds []token.Kind
		cols  []int
	}{
		{"x = 1e + y;", []token.Kind{token.IDENT, token.ASSIGN, token.INTLIT, token.IDENT, token.PLUS, token.IDENT, token.SEMI}, []int{1, 3, 5, 6, 8, 10, 11}},
		{"x = 1e+ y;", []token.Kind{token.IDENT, token.ASSIGN, token.INTLIT, token.IDENT, token.PLUS, token.IDENT, token.SEMI}, []int{1, 3, 5, 6, 7, 9, 10}},
		{"x = 2.5e- z", []token.Kind{token.IDENT, token.ASSIGN, token.FLOATLIT, token.IDENT, token.MINUS, token.IDENT}, []int{1, 3, 5, 8, 9, 11}},
	} {
		lx := New(tc.src)
		toks := lx.All()
		if len(lx.Errors()) != 1 {
			t.Errorf("%q: errors %v, want one malformed exponent", tc.src, lx.Errors())
		}
		if len(toks) != len(tc.kinds)+1 {
			t.Fatalf("%q: %d tokens, want %d", tc.src, len(toks)-1, len(tc.kinds))
		}
		for i, k := range tc.kinds {
			if want := (token.Pos{Line: 1, Col: tc.cols[i]}); toks[i].Kind != k || toks[i].Pos != want {
				t.Errorf("%q: token %d is %s at %v, want %s at %v", tc.src, i, toks[i].Kind, toks[i].Pos, k, want)
			}
		}
	}
}

func TestStringLiteral(t *testing.T) {
	toks := New(`"hello\nworld"`).All()
	if toks[0].Kind != token.STRINGLIT || toks[0].Lit != "hello\nworld" {
		t.Fatalf("got %s %q", toks[0].Kind, toks[0].Lit)
	}
}

func TestUnterminatedString(t *testing.T) {
	lx := New("\"abc")
	toks := lx.All()
	if toks[0].Kind != token.ILLEGAL {
		t.Errorf("expected ILLEGAL for unterminated string, got %s", toks[0].Kind)
	}
	if len(lx.Errors()) == 0 {
		t.Error("expected a lexer error")
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	lx := New("/* never closed")
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Error("expected a lexer error for unterminated block comment")
	}
}

func TestIllegalCharacter(t *testing.T) {
	lx := New("@")
	toks := lx.All()
	if toks[0].Kind != token.ILLEGAL {
		t.Errorf("expected ILLEGAL, got %s", toks[0].Kind)
	}
}

func TestArrowVsMinus(t *testing.T) {
	toks := New("a->b - c -= d--").All()
	want := []token.Kind{
		token.IDENT, token.ARROW, token.IDENT, token.MINUS, token.IDENT,
		token.MINUSEQ, token.IDENT, token.DEC, token.EOF,
	}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %s, want %s (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestScopeVsColon(t *testing.T) {
	toks := New("graph::visit public:").All()
	want := []token.Kind{token.IDENT, token.SCOPE, token.IDENT, token.KWPUBLIC, token.COLON, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

// TestNextAfterEOF: the parser's lookahead reads up to three tokens past
// the end of the input, so Next keeps answering EOF, at the same
// position, without an error.
func TestNextAfterEOF(t *testing.T) {
	for _, src := range []string{"", "x", "x  \n", "x /* open", "Foo *"} {
		l := New(src)
		var first token.Token
		for first = l.Next(); first.Kind != token.EOF; first = l.Next() {
		}
		errs := len(l.Errors())
		for i := 0; i < 4; i++ {
			if tok := l.Next(); tok != first {
				t.Errorf("%q: Next %d after EOF = %v at %v, want EOF at %v", src, i+1, tok.Kind, tok.Pos, first.Pos)
			}
		}
		if len(l.Errors()) != errs {
			t.Errorf("%q: reading past EOF added errors: %v", src, l.Errors()[errs:])
		}
	}
}
