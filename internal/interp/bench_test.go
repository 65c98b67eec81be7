package interp_test

import (
	"testing"

	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// benchProg compiles a source string and returns the checked program.
func benchProg(tb testing.TB, source string) *types.Program {
	tb.Helper()
	f, err := parser.Parse("bench.mc", source)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		tb.Fatalf("check: %v", err)
	}
	return prog
}

// benchEngines enumerates both execution engines so every micro
// benchmark reports the walk/compiled pair side by side.
var benchEngines = []struct {
	name string
	eng  interp.Engine
}{
	{"compiled", interp.EngineCompiled},
	{"walk", interp.EngineWalk},
}

// benchCall measures repeated calls of method full on a fresh program
// instance per engine.
func benchCall(b *testing.B, source, full, recvGlobal string) {
	prog := benchProg(b, source)
	code := interp.Compile(prog)
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			ip := interp.NewEngine(code, nil, e.eng)
			m := prog.MethodByFullName(full)
			if m == nil {
				b.Fatalf("%s not found", full)
			}
			recv := ip.Globals[recvGlobal]
			ctx := ip.NewCtx()
			args := []interp.Value{interp.IntValue(1000)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ip.Call(ctx, m, recv, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

const identBenchSrc = `
class bench {
public:
  int acc;
  int spin(int n);
};

int bench::spin(int n) {
  int i;
  int a;
  int b;
  int c;
  a = 1;
  b = 2;
  c = 0;
  for (i = 0; i < n; i++) {
    c = c + a;
    a = b - c;
    b = c + i;
  }
  return c;
}

bench B;

void main() {
  B.spin(10);
}
`

// BenchmarkIdentAccess measures the steady-state local-variable path:
// the loop body is nothing but ident reads and writes, so ns/op tracks
// the cost of frame-slot access (previously a map[string]Value lookup
// per access) and, under the compiled engine, of the pre-lowered
// closure tree versus the per-node AST type switch.
func BenchmarkIdentAccess(b *testing.B) {
	benchCall(b, identBenchSrc, "bench::spin", "B")
}

const fieldBenchSrc = `
class point {
public:
  int x;
  int y;
  int z;
  void jiggle(int n);
};

void point::jiggle(int n) {
  int i;
  for (i = 0; i < n; i++) {
    x = x + 1;
    y = y + x;
    z = z + y;
  }
}

point P;

void main() {
  P.jiggle(10);
}
`

// BenchmarkFieldAccess measures the steady-state field path: implicit
// this-field reads and writes, so ns/op tracks the cost of the static
// object-slot offset (previously a string concatenation plus two map
// lookups per access in layout.slot).
func BenchmarkFieldAccess(b *testing.B) {
	benchCall(b, fieldBenchSrc, "point::jiggle", "P")
}

const arithBenchSrc = `
class acc {
public:
  double sum;
  double step(int n);
};

double acc::step(int n) {
  int i;
  double x;
  double y;
  x = 0.5;
  y = 1.25;
  for (i = 0; i < n; i++) {
    x = x * 1.0000001 + y;
    y = y * 0.5 + x * 0.25;
    sum = sum + x - y;
  }
  return sum;
}

acc A;

void main() {
  A.step(10);
}
`

// BenchmarkFloatArith measures double-precision arithmetic in a tight
// loop. With the tagged Value representation the float results live in
// the value's number word, so the compiled engine's loop body performs
// no heap allocation at all (see TestCompiledFloatArithZeroAlloc).
func BenchmarkFloatArith(b *testing.B) {
	benchCall(b, arithBenchSrc, "acc::step", "A")
}

// TestCompiledFloatArithZeroAlloc pins the headline property of the
// unboxed representation: steady-state float arithmetic under the
// compiled engine allocates nothing. The first call warms the context's
// activation stack; after that a full call — frame, loop, arithmetic,
// return — must run at allocs/op = 0.
func TestCompiledFloatArithZeroAlloc(t *testing.T) {
	prog := benchProg(t, arithBenchSrc)
	ip := interp.NewEngine(interp.Compile(prog), nil, interp.EngineCompiled)
	m := prog.MethodByFullName("acc::step")
	if m == nil {
		t.Fatal("acc::step not found")
	}
	recv := ip.Globals["A"]
	ctx := ip.NewCtx()
	args := []interp.Value{interp.IntValue(200)}
	if _, err := ip.Call(ctx, m, recv, args); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ip.Call(ctx, m, recv, args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled float arithmetic allocates %v allocs/op, want 0", allocs)
	}
}

const callBenchSrc = `
const int NDIM = 3;

class vector {
public:
  double val[NDIM];
};

class node {
public:
  double mass;
  vector pos;
};

class body : public node {
public:
  vector acc;
  double phi;
  node *other;
  double inter(node *n, double eps, double *res);
  void gravsub(node *n, double eps);
  void sweep(int k);
  double probe(int k);
  double mix(int i, double x);
  double calls(int k);
};

body B;

double body::inter(node *n, double eps, double *res) {
  double drsq, d, r;
  drsq = eps;
  for (int i = 0; i < NDIM; i++) {
    d = n->pos.val[i] - pos.val[i];
    drsq += d * d;
  }
  r = n->mass / drsq;
  for (int i = 0; i < NDIM; i++) {
    d = n->pos.val[i] - pos.val[i];
    res[i] = d * r;
  }
  return r;
}

void body::gravsub(node *n, double eps) {
  double tmpv[NDIM];
  phi -= this->inter(n, eps, tmpv);
  for (int i = 0; i < NDIM; i++)
    acc.val[i] += tmpv[i];
}

void body::sweep(int k) {
  if (other == NULL) {
    other = new node;
    other->mass = 1.0;
    other->pos.val[0] = 1.5;
  }
  for (int j = 0; j < k; j++)
    this->gravsub(other, 0.05);
}

double body::probe(int k) {
  double s;
  node *n;
  if (other == NULL)
    other = new node;
  n = other;
  for (int j = 0; j < k; j++)
    for (int i = 0; i < NDIM; i++)
      s += n->pos.val[i] - pos.val[i];
  return s;
}

double body::mix(int i, double x) { return x * 0.5 + i; }

double body::calls(int k) {
  double s;
  for (int i = 0; i < k; i++)
    s = s + this->mix(i, 0.25);
  return s;
}

void main() {
  B.sweep(10);
}
`

// BenchmarkCallChain measures the steady-state call path on a
// gravsub-shaped method: a pointer and a double argument, a local
// array passed by reference, and two NDIM loops over field paths in the
// callee. The compiled engine keeps the local array in the frame; the
// walker allocates it on every call.
func BenchmarkCallChain(b *testing.B) {
	benchCall(b, callBenchSrc, "body::sweep", "B")
}

// BenchmarkFieldPath measures n->pos.val[i] reads: a chain of field
// accesses over a local, then an element load.
func BenchmarkFieldPath(b *testing.B) {
	benchCall(b, callBenchSrc, "body::probe", "B")
}

// TestCompiledCallZeroAlloc: a steady-state call allocates nothing
// under the compiled engine — the arguments go straight into the
// callee's frame on the context's stack — with primitive arguments, and
// on the gravsub shape, whose local array lives in the frame too.
func TestCompiledCallZeroAlloc(t *testing.T) {
	prog := benchProg(t, callBenchSrc)
	ip := interp.NewEngine(interp.Compile(prog), nil, interp.EngineCompiled)
	recv := ip.Globals["B"]
	ctx := ip.NewCtx()
	args := []interp.Value{interp.IntValue(200)}
	for _, name := range []string{"body::calls", "body::sweep"} {
		m := prog.MethodByFullName(name)
		if _, err := ip.Call(ctx, m, recv, args); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ip.Call(ctx, m, recv, args); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: compiled calls allocate %v allocs/op, want 0", name, allocs)
		}
	}
}
