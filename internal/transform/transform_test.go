package transform_test

import (
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/printer"
	"commute/internal/transform/transformtest"
)

const listSum = `
class node {
public:
  int v;
  node *next;
};
class acc {
public:
  int total;
  void sumList(node *head);
};
class driver {
public:
  acc *a;
  node *h1;
  node *h2;
  void run();
};
void acc::sumList(node *head) {
  node *p;
  p = head;
  while (p != NULL) {
    total = total + p->v;
    p = p->next;
  }
}
void driver::run() {
  a->sumList(h1);
  a->sumList(h2);
}
`

// TestListSumParallelizesAfterTransform is the §7.2 story end to end:
// the while-loop version is unanalyzable and stays serial; after the
// loop-replacement transformation the pointer-chasing accumulation
// passes the commutativity test.
func TestListSumParallelizesAfterTransform(t *testing.T) {
	plain, err := commute.Load("listsum.mc", listSum)
	if err != nil {
		t.Fatal(err)
	}
	if r := plain.Report("driver::run"); r.Parallel {
		t.Fatal("the while-loop version must be serial (unanalyzable loop)")
	}

	sys, err := commute.LoadOpts("listsum.mc", listSum, commute.LoadOptions{Transform: true})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	rewrites := sys.Rewrites
	if len(rewrites) != 1 {
		t.Fatalf("rewrites = %v, want one", rewrites)
	}
	out := printer.File(sys.File)
	if rewrites[0].Helper != "acc::sumList__loop1" {
		t.Errorf("helper = %s", rewrites[0].Helper)
	}
	if !strings.Contains(out, "sumList__loop1(node *p)") {
		t.Errorf("transformed source missing helper:\n%s", out)
	}
	r := sys.Report("driver::run")
	if !r.Parallel {
		t.Fatalf("transformed run should be parallel; reason: %s", r.Reason)
	}
}

// listSumMain is listSum with two lists to sum and a main.
const listSumMain = listSum + `
class setup {
public:
  int built;
  void go();
};
setup S;
driver D;
void setup::go() {
  node *n;
  node *prev;
  int i;
  D.a = new acc;
  prev = NULL;
  for (i = 1; i < 6; i++) {
    n = new node;
    n->v = i;
    n->next = prev;
    prev = n;
  }
  D.h1 = prev;
  prev = NULL;
  for (i = 10; i < 13; i++) {
    n = new node;
    n->v = i;
    n->next = prev;
    prev = n;
  }
  D.h2 = prev;
  built = 1;
}
void main() {
  S.go();
  D.run();
}
`

// TestTransformedExecutionMatches: the transformed program computes the
// same sums, serially and in parallel.
func TestTransformedExecutionMatches(t *testing.T) {
	want := int64(1 + 2 + 3 + 4 + 5 + 10 + 11 + 12)

	// Untransformed serial run.
	plain, err := commute.Load("listsum.mc", listSumMain)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := plain.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plain.ReadInt(ip, "D.a.total")
	if err == nil {
		if got != want {
			t.Fatalf("plain total = %d, want %d", got, want)
		}
	} else {
		// D.a is a pointer; the path reader follows it.
		t.Fatal(err)
	}

	// Transformed, serial and parallel.
	sys, err := commute.LoadOpts("listsum.mc", listSumMain, commute.LoadOptions{Transform: true})
	if err != nil {
		t.Fatal(err)
	}
	ipS, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.ReadInt(ipS, "D.a.total"); got != want {
		t.Fatalf("transformed serial total = %d, want %d", got, want)
	}
	ipP, _, err := sys.RunParallel(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.ReadInt(ipP, "D.a.total"); got != want {
		t.Fatalf("transformed parallel total = %d, want %d", got, want)
	}
}

// TestIneligibleLoopsSkipped: loops whose locals escape, that return,
// or that reference local arrays stay untouched.
func TestIneligibleLoopsSkipped(t *testing.T) {
	for _, tc := range ineligible {
		sys, err := commute.LoadOpts("skip.mc", tc.source(), commute.LoadOptions{Transform: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(sys.Rewrites) != 0 {
			t.Errorf("%s: expected no rewrites, got %v", tc.name, sys.Rewrites)
		}
	}
}

// ineligible are loops whose locals escape, that return, or that
// reference local arrays.
var ineligible = []ineligibleLoop{
	{"local-used-after", `
  int i;
  i = 0;
  while (i < n) { i = i + 1; }
  total = i;`},
	{"return-inside", `
  int i;
  i = 0;
  while (i < n) { i = i + 1; if (i > 3) return; }`},
	{"local-array", `
  double t[4];
  int i;
  i = 0;
  t[0] = 0.0;
  while (i < n) { t[0] = t[0] + 1.0; i = i + 1; }`},
}

type ineligibleLoop struct{ name, body string }

// source is a program whose acc::work is the case's body.
func (l ineligibleLoop) source() string {
	return `
class acc {
public:
  int total;
  int n;
  void work();
};
class driver { public: acc *a; void run(); };
void acc::work() {` + l.body + `
}
void driver::run() { a->work(); }
`
}

// TestInPlaceMatchesRoundTrip: the rewrite in place, checked again,
// says what printing the rewrite and loading the text says, for every
// fixture here and every shipped app.
func TestInPlaceMatchesRoundTrip(t *testing.T) {
	sources := map[string]string{"listsum": listSum, "listsum-main": listSumMain}
	for _, l := range ineligible {
		sources[l.name] = l.source()
	}
	for _, name := range strings.Split(src.AppNames(), ", ") {
		_, sources[name], _ = src.App(name)
	}
	for name, source := range sources {
		diff, checked := transformtest.Diff(name+".mc", source)
		if !checked {
			t.Errorf("%s does not load", name)
		}
		if diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// FuzzTransformInPlace: any program that loads says the same loaded
// under Transform as through the printed round trip. The seeds are
// FuzzParse's programs and this package's fixtures.
func FuzzTransformInPlace(f *testing.F) {
	for _, s := range []string{
		src.Graph, src.BarnesHut, src.Water, listSum, listSumMain,
		"class a { public: int x; }; void m() { if (x) int p, q; while (x) ; x = +-!x; }",
		"const int N 3; class c { public: double v[N], w; c *l, *r; void f(int a[], double b); };",
		"class a { public: int x; }; a *g; void m() { a * p; p = (a *) g; x = \"q\\\"\\n\"; x = 1.5e-3 + 4. ; }",
	} {
		f.Add(s)
	}
	for _, l := range ineligible {
		f.Add(l.source())
	}
	f.Fuzz(func(t *testing.T, source string) {
		if len(source) > 1<<14 {
			return
		}
		if diff, _ := transformtest.Diff("fuzz.mc", source); diff != "" {
			t.Fatalf("%s\nsource:\n%s", diff, source)
		}
	})
}

// TestSynthesizedNodesSitAtTheLoop: every node of a rewritten tree has
// a position, and the helper and the call that replaces the loop have
// the loop's.
func TestSynthesizedNodesSitAtTheLoop(t *testing.T) {
	sys, err := commute.LoadOpts("listsum.mc", listSum, commute.LoadOptions{Transform: true})
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(sys.File, func(n ast.Node) bool {
		if n != nil && n.Pos().Line == 0 {
			t.Errorf("%T has no position", n)
		}
		return true
	})
	loop := sys.Prog.MethodByFullName("acc::sumList__loop1").Def
	call := sys.Prog.MethodByFullName("acc::sumList").Def.Body.Stmts[2]
	// listSum's while loop starts at line 22, column 3.
	if want := "22:3"; loop.Pos().String() != want || call.Pos().String() != want {
		t.Errorf("helper at %s, its call at %s, want both at the while, %s", loop.Pos(), call.Pos(), want)
	}
}
