package symbolic_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"commute/internal/analysis/effects"
	"commute/internal/analysis/extent"
	"commute/internal/analysis/symbolic"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// execOne compiles a program, computes the driver's extent environment,
// and symbolically executes one invocation of the named method.
func execOne(t *testing.T, source, driver, method string) (*symbolic.Result, error) {
	t.Helper()
	f, err := parser.Parse("loop.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	a := effects.NewAnalyzer(prog)
	d := prog.MethodByFullName(driver)
	if d == nil {
		t.Fatalf("driver %s not found", driver)
	}
	ec := extent.Constants(a, d)
	res := extent.Compute(a, d, ec)
	aux := make(map[int]bool)
	for _, c := range res.Aux {
		aux[c.ID] = true
	}
	env := symbolic.NewEnv(prog, ec, aux)
	m := prog.MethodByFullName(method)
	r, err := symbolic.ExecuteOne(m, "1", env)
	if err != nil {
		return nil, err
	}
	return r.Canonical(), nil
}

const loopProgHeader = `
const int N = 4;
class vec {
public:
  double v[N];
  void addAll(double w[N]);
  void scaleAll(double s);
  void subAll(double w[N]);
  void divAll(double s);
  void fillAll(double s);
  void copyAll(double w[N]);
};
class driver {
public:
  vec *x;
  void run();
};
`

const loopProgFooter = `
void driver::run() {
  double t[N];
  t[0] = 1.0;
  x->addAll(t);
  x->scaleAll(2.0);
  x->subAll(t);
  x->divAll(3.0);
  x->fillAll(0.0);
  x->copyAll(t);
}
`

const loopBodies = `
void vec::addAll(double w[N]) {
  for (int i = 0; i < N; i++)
    v[i] += w[i];
}
void vec::scaleAll(double s) {
  for (int i = 0; i < N; i++)
    v[i] *= s;
}
void vec::subAll(double w[N]) {
  for (int i = 0; i < N; i++)
    v[i] = v[i] - w[i];
}
void vec::divAll(double s) {
  for (int i = 0; i < N; i++)
    v[i] /= s;
}
void vec::fillAll(double s) {
  for (int i = 0; i < N; i++)
    v[i] = s;
}
void vec::copyAll(double w[N]) {
  for (int i = 0; i < N; i++)
    v[i] = w[i];
}
`

// TestArrayLoopForms: each recognized elementwise form yields its
// closed representation.
func TestArrayLoopForms(t *testing.T) {
	source := loopProgHeader + loopBodies + loopProgFooter
	cases := []struct {
		method string
		want   string // substring of the canonical val binding
	}{
		{"vec::addAll", "upd(iv:vec.v += 1:w)"},
		{"vec::scaleAll", "upd(iv:vec.v *= 2)"}, // footnote-4: the single call site passes 2.0
		{"vec::subAll", "upd(iv:vec.v += (-1:w))"},
		{"vec::divAll", "upd(iv:vec.v /= 3)"},
		{"vec::fillAll", "fill(0)"},
		{"vec::copyAll", "1:w"},
	}
	for _, tc := range cases {
		r, err := execOne(t, source, "driver::run", tc.method)
		if err != nil {
			t.Errorf("%s: %v", tc.method, err)
			continue
		}
		got := r.IVar("vec.v").Key()
		if got != tc.want {
			t.Errorf("%s: v ↦ %s, want %s", tc.method, got, tc.want)
		}
	}
}

// TestInvocationLoopForm: the paper's second loop form produces a
// loop-form MX expression.
func TestInvocationLoopForm(t *testing.T) {
	source := `
const int K = 8;
class cnt {
public:
  int n;
  void bump(int d);
};
void cnt::bump(int d) { n = n + d; }
class driver {
public:
  cnt *c;
  int total;
  void fire();
};
void driver::fire() {
  for (int i = 0; i < K; i++)
    c->bump(3);
}
`
	r, err := execOne(t, source, "driver::fire", "driver::fire")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Invoked) != 1 {
		t.Fatalf("invoked = %s, want one loop-form MX", r.Invoked)
	}
	mx := r.Invoked[0]
	if mx.Loop == nil {
		t.Fatalf("expected loop-form invocation, got %s", mx.Key())
	}
	key := mx.Key()
	for _, part := range []string{"for i=0..8", "cnt::bump", "(3)"} {
		if !strings.Contains(key, part) {
			t.Errorf("loop MX %q missing %q", key, part)
		}
	}
}

// TestUnrollFallback: a constant-bound loop outside the two recognized
// forms unrolls; the per-element stores canonicalize.
func TestUnrollFallback(t *testing.T) {
	source := `
const int N = 3;
class tri {
public:
  double v[N];
  void fillIdx();
};
void tri::fillIdx() {
  for (int i = 0; i < N; i++)
    v[i] = i * 2.0;
}
class driver {
public:
  tri *x;
  void run();
};
void driver::run() {
  x->fillIdx();
}
`
	r, err := execOne(t, source, "driver::run", "tri::fillIdx")
	if err != nil {
		t.Fatal(err)
	}
	got := r.IVar("tri.v").Key()
	// Unrolled stores in index order.
	want := "store(store(store(iv:tri.v, 0, 0), 1, 2), 2, 4)"
	if got != want {
		t.Errorf("v ↦ %s, want %s", got, want)
	}
}

// TestUnanalyzableConstructs: while loops, dynamic bounds, conditional
// returns, and object creation are rejected with clear reasons.
func TestUnanalyzableConstructs(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"while", "while (n < 10) n = n + 1;", "while loops"},
		{"dynamic-bound", "for (int i = 0; i < n; i++) n = n + 1;", "not compile-time constants"},
		{"conditional-return", "if (n > 0) return; n = 1;", "conditional return"},
		{"new", "n = 1; if (n > 0) { p = new cnt; }", "object creation"},
	}
	for _, tc := range cases {
		source := `
class cnt {
public:
  int n;
  cnt *p;
  void m();
};
void cnt::m() { ` + tc.body + ` }
class driver {
public:
  cnt *c;
  void run();
};
void driver::run() { c->m(); }
`
		_, err := execOne(t, source, "driver::run", "cnt::m")
		if err == nil {
			t.Errorf("%s: expected unanalyzable error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err.Error(), tc.want)
		}
	}
}

// TestLargeUnrollRejected: unrolling is bounded; a loop longer than the
// whole budget is refused before it starts.
func TestLargeUnrollRejected(t *testing.T) {
	source := `
const int N = 100000;
class big {
public:
  double v[N];
  void odd();
};
void big::odd() {
  for (int i = 0; i < N; i++)
    v[i] = i * 1.0;
}
class driver {
public:
  big *x;
  void run();
};
void driver::run() { x->odd(); }
`
	_, err := execOne(t, source, "driver::run", "big::odd")
	if err == nil || !strings.Contains(err.Error(), "too large to unroll") {
		t.Errorf("expected unroll-bound error, got %v", err)
	}
}

// TestNestedUnrollBudget: the unrolling budget covers a whole nest, so
// three levels of 64-bound loops (262 144 innermost iterations) finish
// or are refused within 1 s and 200 MB, where a bound per loop would let
// them run to the end. The addend k * 2 is one the executor cannot fold
// into the sum, which therefore nests a level per iteration.
func TestNestedUnrollBudget(t *testing.T) {
	source := `
class cnt {
public:
  int total;
  void bump(int v);
};
void cnt::bump(int v) {
  int t = total;
  for (int i = 0; i < 64; i++) {
    for (int j = 0; j < 64; j++) {
      for (int k = 0; k < 64; k++) {
        t = t + k * 2;
      }
    }
  }
  total = t + v;
}
class driver {
public:
  cnt *c;
  void run();
};
void driver::run() { c->bump(1); }
`
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := execOne(t, source, "driver::run", "cnt::bump")
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil && !strings.Contains(err.Error(), "too large to unroll") {
		t.Fatalf("the nest failed for another reason: %v", err)
	}
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	sysMB := float64(after.Sys-before.Sys) / (1 << 20)
	t.Logf("%v in %v, %.1f MB allocated, %.1f MB more from the OS", err, elapsed, allocMB, sysMB)
	if elapsed > time.Second || allocMB > 200 || sysMB > 200 {
		t.Errorf("the three-deep nest took %v, allocated %.1f MB and took %.1f MB more from the OS: bound 1 s and 200 MB",
			elapsed, allocMB, sysMB)
	}
}
