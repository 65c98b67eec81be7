package parser

import (
	"testing"

	"commute/internal/apps/src"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/lexer"
	"commute/internal/frontend/token"
)

func mustParse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse("test.mc", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func TestParseGraphExample(t *testing.T) {
	f := mustParse(t, src.Graph)
	var classes, methods, globals, consts int
	for _, d := range f.Decls {
		switch d.(type) {
		case *ast.ClassDecl:
			classes++
		case *ast.MethodDef:
			methods++
		case *ast.GlobalVar:
			globals++
		case *ast.ConstDecl:
			consts++
		}
	}
	if classes != 2 {
		t.Errorf("classes = %d, want 2", classes)
	}
	if methods != 6 { // visit, reset, nextRandom, build, traverse, main
		t.Errorf("methods = %d, want 6", methods)
	}
	if globals != 1 {
		t.Errorf("globals = %d, want 1", globals)
	}
	if consts != 1 {
		t.Errorf("consts = %d, want 1", consts)
	}
}

func TestParseClassWithInheritance(t *testing.T) {
	f := mustParse(t, `
class node {
public:
  double mass;
};
class cell : public node {
public:
  node *subp[8];
};
`)
	cd := f.Decls[1].(*ast.ClassDecl)
	if cd.Name != "cell" || cd.Base != "node" {
		t.Fatalf("got class %s : %s", cd.Name, cd.Base)
	}
	if len(cd.Fields) != 1 || cd.Fields[0].Name != "subp" {
		t.Fatalf("fields: %+v", cd.Fields)
	}
	ft := cd.Fields[0].Type
	if !ft.Ptr || ft.ClassName != "node" || len(ft.ArrayDims) != 1 {
		t.Fatalf("subp type: %+v", ft)
	}
}

func TestParseInlineMethod(t *testing.T) {
	f := mustParse(t, `
const int NDIM = 3;
class vector {
public:
  double val[NDIM];
  void vecAdd(double v[NDIM]) {
    for (int i = 0; i < NDIM; i++)
      val[i] += v[i];
  }
};
`)
	cd := f.Decls[1].(*ast.ClassDecl)
	if len(cd.Inline) != 1 || cd.Inline[0].Name != "vecAdd" {
		t.Fatalf("inline methods: %+v", cd.Inline)
	}
	if cd.Inline[0].ClassName != "vector" {
		t.Fatalf("inline method class = %q", cd.Inline[0].ClassName)
	}
}

func TestParseOutOfLineMethod(t *testing.T) {
	f := mustParse(t, `
class body {
public:
  double phi;
  void gravsub(body *n);
};
void body::gravsub(body *n) {
  phi -= 1.0;
}
`)
	md := f.Decls[1].(*ast.MethodDef)
	if md.ClassName != "body" || md.Name != "gravsub" {
		t.Fatalf("method: %s::%s", md.ClassName, md.Name)
	}
	if len(md.Params) != 1 || md.Params[0].Name != "n" {
		t.Fatalf("params: %+v", md.Params)
	}
}

func TestParseDynamicCast(t *testing.T) {
	f := mustParse(t, `
class node { public: double mass; };
class cell : public node { public: int k; };
class walker {
public:
  int w;
  void walk(node *n);
};
void walker::walk(node *n) {
  cell *c;
  c = dynamic_cast<cell*>(n);
  if (c != NULL)
    w = 1;
}
`)
	md := f.Decls[3].(*ast.MethodDef)
	es := md.Body.Stmts[1].(*ast.ExprStmt)
	asn := es.X.(*ast.Assign)
	cast, ok := asn.RHS.(*ast.CastExpr)
	if !ok || cast.ClassName != "cell" || !cast.Dynamic {
		t.Fatalf("cast: %+v", asn.RHS)
	}
}

func TestParseCStyleCast(t *testing.T) {
	f := mustParse(t, `
class node { public: double mass; };
class cell : public node { public: int k; };
class walker {
public:
  int w;
  void walk(node *n);
};
void walker::walk(node *n) {
  cell *c;
  c = (cell*)n;
}
`)
	md := f.Decls[3].(*ast.MethodDef)
	es := md.Body.Stmts[1].(*ast.ExprStmt)
	asn := es.X.(*ast.Assign)
	cast, ok := asn.RHS.(*ast.CastExpr)
	if !ok || cast.ClassName != "cell" || cast.Dynamic {
		t.Fatalf("cast: %+v", asn.RHS)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	f := mustParse(t, `
class a {
public:
  double x;
  void m();
};
void a::m() {
  x = 1.0 + 2.0 * 3.0;
}
`)
	md := f.Decls[1].(*ast.MethodDef)
	asn := md.Body.Stmts[0].(*ast.ExprStmt).X.(*ast.Assign)
	add, ok := asn.RHS.(*ast.Binary)
	if !ok || add.Op != token.PLUS {
		t.Fatalf("top op should be +, got %+v", asn.RHS)
	}
	mul, ok := add.Y.(*ast.Binary)
	if !ok || mul.Op != token.STAR {
		t.Fatalf("right operand should be *, got %+v", add.Y)
	}
}

func TestPostfixIncrementDesugar(t *testing.T) {
	f := mustParse(t, `
class a {
public:
  int x;
  void m();
};
void a::m() {
  x++;
  --x;
}
`)
	md := f.Decls[1].(*ast.MethodDef)
	inc := md.Body.Stmts[0].(*ast.ExprStmt).X.(*ast.Assign)
	if inc.Op != token.PLUSEQ {
		t.Errorf("x++ should desugar to +=, got %s", inc.Op)
	}
	dec := md.Body.Stmts[1].(*ast.ExprStmt).X.(*ast.Assign)
	if dec.Op != token.MINUSEQ {
		t.Errorf("--x should desugar to -=, got %s", dec.Op)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"class { };",            // missing class name
		"class a { int x; } ",   // missing semicolon after class
		"void a::m() { x = ; }", // missing expression
		"int q qq;",             // bad top-level
	}
	for _, src := range cases {
		if _, err := Parse("bad.mc", src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseForLoopVariants(t *testing.T) {
	f := mustParse(t, `
class a {
public:
  int x;
  void m();
};
void a::m() {
  int i;
  for (i = 0; i < 10; i++) x = x + 1;
  for (int j = 0; j < 10; j = j + 2) x = x + j;
  for (;;) x = 0;
  while (x < 5) x = x + 1;
}
`)
	md := f.Decls[1].(*ast.MethodDef)
	if len(md.Body.Stmts) != 5 {
		t.Fatalf("stmts = %d, want 5", len(md.Body.Stmts))
	}
	bare := md.Body.Stmts[3].(*ast.ForStmt)
	if bare.Init != nil || bare.Cond != nil || bare.Post != nil {
		t.Errorf("for(;;) should have nil parts")
	}
}

func TestCommaFieldDeclarators(t *testing.T) {
	f := mustParse(t, `
class graph {
public:
  int val, sum;
  graph *left, *right;
};
`)
	cd := f.Decls[0].(*ast.ClassDecl)
	if len(cd.Fields) != 4 {
		t.Fatalf("fields = %d, want 4", len(cd.Fields))
	}
	names := []string{"val", "sum", "left", "right"}
	for i, n := range names {
		if cd.Fields[i].Name != n {
			t.Errorf("field %d = %s, want %s", i, cd.Fields[i].Name, n)
		}
	}
	if cd.Fields[2].Type.Ptr != true || cd.Fields[3].Type.Ptr != true {
		t.Error("left/right should be pointers")
	}
	if cd.Fields[0].Type.Ptr || cd.Fields[1].Type.Ptr {
		t.Error("val/sum should not be pointers")
	}
}

func TestNestedFieldAccessChain(t *testing.T) {
	f := mustParse(t, `
const int NDIM = 3;
class vector { public: double val[NDIM]; };
class node { public: vector pos; };
class body : public node {
public:
  double d;
  void f(node *n);
};
void body::f(node *n) {
  d = n->pos.val[0] - pos.val[0];
}
`)
	md := f.Decls[4].(*ast.MethodDef)
	asn := md.Body.Stmts[0].(*ast.ExprStmt).X.(*ast.Assign)
	sub, ok := asn.RHS.(*ast.Binary)
	if !ok || sub.Op != token.MINUS {
		t.Fatalf("rhs: %+v", asn.RHS)
	}
	idx, ok := sub.X.(*ast.IndexExpr)
	if !ok {
		t.Fatalf("lhs of -: %+v", sub.X)
	}
	fa, ok := idx.X.(*ast.FieldAccess)
	if !ok || fa.Name != "val" || fa.Arrow {
		t.Fatalf("val access: %+v", idx.X)
	}
	pos, ok := fa.X.(*ast.FieldAccess)
	if !ok || pos.Name != "pos" || !pos.Arrow {
		t.Fatalf("pos access: %+v", fa.X)
	}
}

// TestLookaheadAtEndOfInput: `Class * ident` is told from a product by
// looking two tokens ahead, and a C-style cast three, so a class name
// near the end of a body or of the file makes the parser read past EOF.
// It must report the truncation and stop.
func TestLookaheadAtEndOfInput(t *testing.T) {
	for _, in := range lookaheadAtEOF {
		file, err := Parse("eof.mc", in)
		if file == nil {
			t.Fatalf("%q: nil file", in)
		}
		if err == nil {
			t.Errorf("%q: expected a syntax error", in)
		}
	}
	// The same tokens followed by what they need parse.
	f := mustParse(t, lookaheadClass+"void m() { Foo * x; x = (Foo *) x; }")
	body := f.Decls[1].(*ast.MethodDef).Body.Stmts
	if d, ok := body[0].(*ast.DeclStmt); !ok || d.Name != "x" || !d.Type.Ptr {
		t.Errorf("Foo * x; parsed as %#v", body[0])
	}
	if _, ok := body[1].(*ast.ExprStmt).X.(*ast.Assign).RHS.(*ast.CastExpr); !ok {
		t.Errorf("(Foo *) x parsed as %#v", body[1])
	}
}

const lookaheadClass = "class Foo { public: int v; };\n"

// lookaheadAtEOF ends each input inside the lookahead window.
var lookaheadAtEOF = []string{
	lookaheadClass + "void m() { Foo *",
	lookaheadClass + "void m() { Foo * x",
	lookaheadClass + "void m() { Foo * }",
	lookaheadClass + "void m() { Foo * x }",
	lookaheadClass + "void m() { x = (Foo *",
	lookaheadClass + "void m() { x = (Foo",
	lookaheadClass + "Foo *",
	lookaheadClass + "Foo * x",
	lookaheadClass + "Foo",
}

// TestLookaheadAllocatesNothing: the current token is a field and the
// lookahead a fixed array on the Parser, so walking a token stream
// through peekAt and next costs no allocation per token.
func TestLookaheadAllocatesNothing(t *testing.T) {
	const runs = 5
	ps := make([]*Parser, runs+1)
	for i := range ps {
		ps[i] = &Parser{lex: lexer.New(src.BarnesHut)}
		ps[i].next()
	}
	i, tokens := 0, 0
	avg := testing.AllocsPerRun(runs, func() {
		p := ps[i]
		i++
		for p.peekAt(3); p.tok.Kind != token.EOF; p.peekAt(3) {
			p.next()
			tokens++
		}
	})
	if avg != 0 {
		t.Errorf("%.1f allocations per pass over %d tokens, want 0", avg, tokens/(runs+1))
	}
	if tokens < 1000 {
		t.Fatalf("walked %d tokens: the stream was not consumed", tokens)
	}
}
