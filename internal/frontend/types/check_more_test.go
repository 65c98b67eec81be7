package types_test

import (
	"testing"

	"commute/internal/frontend/types"
)

func TestMoreErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"class-redeclared",
			`class a { public: int x; void m(); }; void a::m() { x = 1; } class a { public: int y; };`,
			"redeclared"},
		{"const-redeclared",
			`const int N = 1; const int N = 2;`,
			"redeclared"},
		{"const-float-as-int",
			`const int N = 1.5;`,
			"initialized with float"},
		{"const-non-constant",
			`class a { public: int x; }; const int N = 1 % 2;`,
			"not a compile-time constant"},
		{"void-field",
			`class a { public: void v; };`,
			"void field"},
		{"unsized-array-field",
			`class a { public: int v[]; };`,
			"unsized array"},
		{"primptr-field",
			`class a { public: double *p; };`,
			"pointers to primitives may only appear as parameters"},
		{"bad-array-dim",
			`class a { public: int v[0]; };`,
			"positive integer constant"},
		{"overload",
			`class a { public: void m(); void m(int k); };`,
			"overloading"},
		{"def-without-proto",
			`class a { public: int x; }; void a::m() { }`,
			"no prototype"},
		{"def-twice",
			`class a { public: int x; void m(); }; void a::m() { x = 1; } void a::m() { x = 2; }`,
			"defined twice"},
		{"arity-mismatch",
			`class a { public: int x; void m(int k); }; void a::m() { x = 1; }`,
			"parameters"},
		{"param-type-mismatch",
			`class a { public: int x; void m(int k); }; void a::m(double k) { x = 1; }`,
			"differs from prototype"},
		{"ret-type-mismatch",
			`class a { public: int x; void m(); }; int a::m() { return 1; }`,
			"return type"},
		{"undefined-class-field",
			`class a { public: q nested; };`,
			"undefined class"},
		{"method-def-unknown-class",
			`void q::m() { }`,
			"undefined class"},
		{"object-param",
			`class v { public: int x; }; class a { public: int y; void m(v p); }; void a::m(v p) { y = 1; }`,
			"passed by pointer"},
		{"call-arity",
			`class a { public: int x; void m(int k); void n(); }; void a::m(int k) { x = k; } void a::n() { this->m(); }`,
			"expects 1 arguments"},
		{"wrong-pointer-class",
			`class b { public: int q; }; class c { public: int r; };
			 class a { public: int x; void m(b *p); void n(c *p); };
			 void a::m(b *p) { x = 1; } void a::n(c *p) { this->m(p); }`,
			"cannot assign"},
		{"modulo-on-double",
			`class a { public: double d; void m(); }; void a::m() { d = d % 2.0; }`,
			"requires int operands"},
		{"logic-on-ints",
			`class a { public: int x; boolean b; void m(); }; void a::m() { b = x && b; }`,
			"requires boolean operands"},
		{"compare-unrelated-pointers",
			`class b { public: int q; }; class c { public: int r; };
			 class a { public: boolean eq; void m(b *p, c *p2); };
			 void a::m(b *p, c *p2) { eq = p == p2; }`,
			"unrelated classes"},
		{"cycle",
			`class a : public b { public: int x; }; class b : public a { public: int y; };`,
			"cycle"},
		{"repeated-param-method",
			`class c { public: int x; void f(int a, int b); }; void c::f(int a, int a) { x = a; }`,
			"parameter a declared twice"},
		{"repeated-param-proto",
			`class c { public: int x; void f(int a, int a); };`,
			"parameter a declared twice"},
		{"repeated-param-func",
			`void f(int a, int a) { } void main() { f(1, 2); }`,
			"parameter a declared twice"},
		{"compound-on-bool",
			`class a { public: boolean b; void m(); }; void a::m() { b += TRUE; }`,
			"compound assignment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkErr(t, tc.src, tc.want)
		})
	}
}

func TestUpcastsAndNullAssignment(t *testing.T) {
	p := check(t, `
class node { public: double mass; };
class body : public node { public: double phi; };
class m {
public:
  node *n;
  void take(node *q);
  void go(body *b);
};
void m::take(node *q) { n = q; }
void m::go(body *b) {
  n = b;          // implicit upcast in assignment
  n = NULL;       // null assignment
  this->take(b);  // implicit upcast in argument passing
}
`)
	if p.Classes["body"].Base != p.Classes["node"] {
		t.Fatal("inheritance lost")
	}
}

func TestReferenceParamDecay(t *testing.T) {
	// Arrays decay to pointer params and pass through as arrays.
	check(t, `
const int N = 3;
class m {
public:
  int x;
  void fill(double *res);
  void fill2(double res[N]);
  void go();
};
void m::fill(double *res) { res[0] = 1.0; }
void m::fill2(double res[N]) { res[1] = 2.0; }
void m::go() {
  double t[N];
  this->fill(t);
  this->fill2(t);
}
`)
}

func TestConstExpressions(t *testing.T) {
	p := check(t, `
const int A = 2 + 3 * 4;
const int B = (20 - 2) / 3;
const int C = -A;
const double D = 1.5 * 2.0;
class m { public: int v[A]; void go(); };
void m::go() { v[0] = B + C; }
`)
	if p.Consts["A"].I != 14 {
		t.Errorf("A = %d, want 14", p.Consts["A"].I)
	}
	if p.Consts["B"].I != 6 {
		t.Errorf("B = %d, want 6", p.Consts["B"].I)
	}
	if p.Consts["C"].I != -14 {
		t.Errorf("C = %d, want -14", p.Consts["C"].I)
	}
	if p.Consts["D"].F != 3.0 {
		t.Errorf("D = %f, want 3.0", p.Consts["D"].F)
	}
	arr, ok := p.Classes["m"].FieldByName("v").Type.(types.Array)
	if !ok || arr.Len != 14 {
		t.Errorf("v type = %v, want [14]int", p.Classes["m"].FieldByName("v").Type)
	}
}
