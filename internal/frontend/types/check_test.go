package types_test

import (
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

func check(t *testing.T, source string) *types.Program {
	t.Helper()
	f, err := parser.Parse("test.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func checkErr(t *testing.T, source, wantSub string) {
	t.Helper()
	f, err := parser.Parse("test.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = types.Check(f)
	if err == nil {
		t.Fatalf("expected type error containing %q, got none", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

func TestCheckGraphExample(t *testing.T) {
	p := check(t, src.Graph)
	g := p.Classes["graph"]
	if g == nil {
		t.Fatal("class graph missing")
	}
	if len(g.Fields) != 5 {
		t.Errorf("graph fields = %d, want 5", len(g.Fields))
	}
	visit := g.MethodByName("visit")
	if visit == nil {
		t.Fatal("graph::visit missing")
	}
	if len(visit.CallSites) != 2 {
		t.Errorf("visit call sites = %d, want 2", len(visit.CallSites))
	}
	for _, cs := range visit.CallSites {
		if cs.Callee != visit {
			t.Errorf("visit call site should resolve to visit, got %s", cs.Callee.FullName())
		}
	}
	if p.Main == nil {
		t.Fatal("main missing")
	}
	if p.Globals["Builder"] == nil {
		t.Fatal("global Builder missing")
	}
}

func TestInheritanceFieldResolution(t *testing.T) {
	p := check(t, `
const int NDIM = 3;
class vector { public: double val[NDIM]; };
class node { public: double mass; vector pos; };
class body : public node {
public:
  double phi;
  void f(node *n);
};
void body::f(node *n) {
  phi = n->pos.val[0] - pos.val[0] + mass;
}
`)
	body := p.Classes["body"]
	if body.Base != p.Classes["node"] {
		t.Fatal("body should inherit node")
	}
	// pos resolves through inheritance; its declaring class is node.
	f := body.FieldByName("pos")
	if f == nil || f.Class.Name != "node" {
		t.Fatalf("pos field: %+v", f)
	}
	m := body.MethodByName("f")
	md := m.Def
	// Find the implicit-receiver `pos` identifier and confirm FieldClass.
	var found bool
	ast.Inspect(md.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "pos" {
			if id.Sym != ast.SymField || id.FieldClass != "node" {
				t.Errorf("pos resolved as %v / %q", id.Sym, id.FieldClass)
			}
			found = true
		}
		return true
	})
	if !found {
		t.Error("implicit pos identifier not found")
	}
}

func TestMethodResolutionThroughBase(t *testing.T) {
	p := check(t, `
class base {
public:
  int x;
  void bump();
};
class derived : public base {
public:
  int y;
  void go();
};
void base::bump() { x = x + 1; }
void derived::go() { bump(); this->bump(); }
`)
	d := p.Classes["derived"]
	m := d.MethodByName("go")
	if len(m.CallSites) != 2 {
		t.Fatalf("call sites = %d, want 2", len(m.CallSites))
	}
	for _, cs := range m.CallSites {
		if cs.Callee.FullName() != "base::bump" {
			t.Errorf("callee = %s, want base::bump", cs.Callee.FullName())
		}
	}
}

func TestReferenceParameterTyping(t *testing.T) {
	p := check(t, `
const int NDIM = 3;
class vector {
public:
  double val[NDIM];
  void vecAdd(double v[NDIM]) {
    for (int i = 0; i < NDIM; i++)
      val[i] += v[i];
  }
};
class body {
public:
  vector acc;
  void g();
};
void body::g() {
  double tmpv[NDIM];
  tmpv[0] = 1.0;
  acc.vecAdd(tmpv);
}
`)
	vec := p.Classes["vector"]
	va := vec.MethodByName("vecAdd")
	if len(va.Params) != 1 || !va.Params[0].IsRef() {
		t.Fatalf("vecAdd param should be a reference parameter: %+v", va.Params)
	}
	if got := len(va.ReferenceParams()); got != 1 {
		t.Errorf("ReferenceParams = %d, want 1", got)
	}
	// Class pointers are not reference parameters.
	p2 := check(t, `
class node { public: double mass; };
class body {
public:
  double phi;
  void gravsub(node *n);
};
void body::gravsub(node *n) { phi = phi - n->mass; }
`)
	gs := p2.Classes["body"].MethodByName("gravsub")
	if gs.Params[0].IsRef() {
		t.Error("class pointer parameter should not be a reference parameter")
	}
}

func TestGlobalMustBeClassType(t *testing.T) {
	// Valid: class-typed global.
	check(t, `
class a { public: int x; void m(); };
void a::m() { x = 1; }
a A;
`)
	// Invalid: primitive global (dialect §6.1).
	checkErr(t, `int X;`, "globals must be class types")
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`class a { public: int x; void m(); }; void a::m() { y = 1; }`, "undefined identifier y"},
		{`class a { public: int x; void m(); }; void a::m() { x = TRUE; }`, "cannot assign"},
		{`class a { public: int x; void m(); }; void a::m() { if (x) x = 1; }`, "must be boolean"},
		{`class a { public: int x; void m(); }; void a::m() { this->q(); }`, "no method q"},
		{`class a { public: int x; void m(); };`, "never defined"},
		{`class a : public b { public: int x; };`, "undefined base class"},
		{`class a { public: int x; void m(); }; void a::m() { int x; int x; }`, "redeclared"},
		{`class a { public: int x; void m(int k); }; void a::m(int k) { int k; }`, "shadows a parameter"},
		{`class a { public: int x; void m(); }; void a::m() { 1 = 2; }`, "not assignable"},
		{`class a { public: int x; void m(); }; void a::m() { x = 1 + TRUE; }`, "requires numeric"},
		{`class a { public: void m(); }; void a::m() { return 1; }`, "return value in void method"},
		{`class a { public: int m(); }; int a::m() { return; }`, "return with no value"},
		{`class b { public: int q; }; class a { public: int x; void m(b *p); }; void a::m(b *p) { x = p->nope; }`, "no field nope"},
		{`class a { public: int x; int m(); }; int a::m() { if (x > 0) return x; }`, "a::m: missing return at end of body"},
		{`class a { public: int m(); }; int a::m() { int i; i = 0; while (TRUE) { i = i + 1; if (i > 3) return i; } }`, "missing return"},
		{`class a { public: double m(); }; double a::m() { }`, "missing return"},
		{`class a { public: int x; boolean m(); }; boolean a::m() { if (x > 0) return TRUE; }`, "missing return"},
		{`class a { public: a *next; a *m(); }; a *a::m() { if (next != NULL) return next; }`, "missing return"},
		{`void main(int n) { print(n + 1); }`, "main has parameters"},
	}
	for _, tc := range cases {
		checkErr(t, tc.src, tc.want)
	}
}

func TestExprTypes(t *testing.T) {
	p := check(t, `
class a {
public:
  int i;
  double d;
  boolean b;
  void m();
  int sign();
};
void a::m() {
  d = i * 2 + d;
  b = i < 3 && d >= 1.0;
}
int a::sign() {
  {
    if (i < 0) {
      return -1;
    } else {
      return 1;
    }
  }
}
`)
	m := p.Classes["a"].MethodByName("m")
	s0 := m.Def.Body.Stmts[0].(*ast.ExprStmt).X.(*ast.Assign)
	if tt := p.TypeOf(s0.RHS); !types.Equal(tt, types.Basic(types.Double)) {
		t.Errorf("i*2+d type = %v, want double", tt)
	}
	add := s0.RHS.(*ast.Binary)
	if tt := p.TypeOf(add.X); !types.Equal(tt, types.Basic(types.Int)) {
		t.Errorf("i*2 type = %v, want int", tt)
	}
	s1 := m.Def.Body.Stmts[1].(*ast.ExprStmt).X.(*ast.Assign)
	if tt := p.TypeOf(s1.RHS); !types.Equal(tt, types.Basic(types.Bool)) {
		t.Errorf("condition type = %v, want boolean", tt)
	}
}

func TestCallSiteNumbering(t *testing.T) {
	p := check(t, src.Graph)
	for i, cs := range p.CallSites {
		if cs.ID != i {
			t.Fatalf("call site %d has ID %d", i, cs.ID)
		}
		if cs.Call.Site != i {
			t.Fatalf("call site %d AST back-pointer = %d", i, cs.Call.Site)
		}
	}
	if len(p.CallSites) == 0 {
		t.Fatal("no call sites registered")
	}
}

func TestDynamicCastTyping(t *testing.T) {
	p := check(t, `
class node { public: double mass; };
class cell : public node { public: int k; };
class w {
public:
  int r;
  void f(node *n);
};
void w::f(node *n) {
  cell *c;
  c = dynamic_cast<cell*>(n);
  if (c != NULL)
    r = c->k;
}
`)
	_ = p
	checkErr(t, `
class node { public: double mass; };
class other { public: int k; };
class w {
public:
  int r;
  void f(node *n);
};
void w::f(node *n) {
  other *c;
  c = dynamic_cast<other*>(n);
}
`, "unrelated classes")
}

func TestBuiltins(t *testing.T) {
	p := check(t, `
class a {
public:
  double d;
  void m();
};
void a::m() {
  d = sqrt(d) + fabs(d) + pow(d, 2.0);
}
`)
	m := p.Classes["a"].MethodByName("m")
	if len(m.CallSites) != 0 {
		t.Errorf("builtins must not register call sites, got %d", len(m.CallSites))
	}
	checkErr(t, `
class a { public: double d; void m(); };
void a::m() { d = sqrt(d, d); }
`, "expects 1 arguments")
}

func TestMainAndFreeFunctions(t *testing.T) {
	p := check(t, `
class sim { public: int n; void run(); };
void sim::run() { n = n + 1; }
sim S;
void helper() { S.run(); }
void main() { helper(); }
`)
	if p.Main == nil {
		t.Fatal("main not found")
	}
	if len(p.Main.CallSites) != 1 {
		t.Fatalf("main call sites = %d", len(p.Main.CallSites))
	}
	checkErr(t, `
class sim { public: int n; void run(); };
void helper() { }
void sim::run() { helper(); }
`, "methods may not call free functions")
}

// TestCallSiteValueUsed: a call that is a statement of its own — a for
// header's post statement included — drops its value; anywhere else the
// value is consumed. core reads this instead of re-walking the caller.
func TestCallSiteValueUsed(t *testing.T) {
	p := check(t, `
class a {
public:
  int n;
  int get(int k);
  void m();
};
int a::get(int k) { n = n + k; return n; }
void a::m() {
  int i;
  this->get(1);
  n = this->get(2);
  this->get(this->get(3));
  for (i = 0; i < this->get(4); this->get(5)) {
    if (this->get(6) > 0) this->get(7);
  }
}
`)
	// Sites by the literal they pass: the argument nests before its call.
	want := map[int64]bool{1: false, 2: true, 3: true, 4: true, 5: false, 6: true, 7: false}
	outer := 0
	for _, cs := range p.Classes["a"].MethodByName("m").CallSites {
		lit, ok := cs.Call.Args[0].(*ast.IntLit)
		if !ok {
			outer++
			if cs.ValueUsed {
				t.Errorf("get(get(3)) as a statement: ValueUsed = true")
			}
			continue
		}
		if cs.ValueUsed != want[lit.Value] {
			t.Errorf("get(%d): ValueUsed = %t, want %t", lit.Value, cs.ValueUsed, want[lit.Value])
		}
	}
	if outer != 1 {
		t.Fatalf("found %d calls with a call argument, want 1", outer)
	}
}
