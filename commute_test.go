package commute_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/codegen"
)

func TestLoadErrors(t *testing.T) {
	if _, err := commute.Load("bad.mc", "class {"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := commute.Load("bad.mc", `
class a { public: int x; void m(); };
void a::m() { y = 1; }
`); err == nil || !strings.Contains(err.Error(), "type check") {
		t.Errorf("expected type-check error, got %v", err)
	}
}

func TestLoadFiles(t *testing.T) {
	sources := map[string]string{
		"classes.mc": `
class acc { public: int n; void add(int k); };
void acc::add(int k) { n = n + k; }
acc A;
`,
		"main.mc": `
class tally { public: int hits; void hit(); };
void tally::hit() { hits = hits + 1; }
tally T;
void main() {
  A.add(1);
  A.add(2);
  T.hit();
}
`,
	}
	sys, err := commute.LoadFiles(sources)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.ReadInt(ip, "A.n")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("A.n = %d, want 3", n)
	}

	// Files are parsed in name order, whatever order the map yields them
	// in: every load emits the same Go package, byte for byte.
	emit := func(sys *commute.System) map[string][]byte {
		files, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "loadfiles"})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	want := emit(sys)
	for i := 0; i < 20; i++ {
		again, err := commute.LoadFiles(sources)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range emit(again) {
			if !bytes.Equal(data, want[name]) {
				t.Fatalf("load %d: emitted %s differs from the first load's", i+2, name)
			}
		}
	}
}

func TestFacadePipeline(t *testing.T) {
	sys, err := commute.Load("graph.mc", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.Report("builder::traverse")
	if r == nil || !r.Parallel {
		t.Fatal("traverse should be parallel")
	}
	if sys.Report("no::such") != nil {
		t.Error("unknown method should yield nil report")
	}
	names := sys.ParallelMethods()
	found := false
	for _, n := range names {
		if n == "graph::visit" {
			found = true
		}
	}
	if !found {
		t.Errorf("ParallelMethods() = %v, missing graph::visit", names)
	}

	var out bytes.Buffer
	if _, err := sys.RunSerial(&out); err != nil {
		t.Fatal(err)
	}
	_, stats, err := sys.RunParallel(4, &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regions == 0 {
		t.Error("no parallel regions executed")
	}

	tr, err := sys.Trace(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res1 := commute.Simulate(tr, 1)
	res8 := commute.Simulate(tr, 8)
	if res8.TimeMicros >= res1.TimeMicros {
		t.Errorf("no simulated speedup: %f vs %f", res1.TimeMicros, res8.TimeMicros)
	}
}

func TestReadPaths(t *testing.T) {
	sys, err := commute.Load("bh.mc", src.BarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.ReadInt(ip, "Nbody.numbodies")
	if err != nil || n != 256 {
		t.Fatalf("numbodies = %d (%v)", n, err)
	}
	x, err := sys.ReadFloat(ip, "Nbody.bodies[0].pos.val[0]")
	if err != nil {
		t.Fatal(err)
	}
	if x < 0 || x > 4 {
		t.Errorf("pos out of box: %f", x)
	}
	// Error paths.
	for _, bad := range []string{
		"Nope.x", "Nbody.nope", "Nbody.bodies[99999].phi",
		"Nbody.numbodies[0]", "Nbody.bodies[0].pos.val[0].deeper",
	} {
		if _, err := sys.Read(ip, bad); err == nil {
			t.Errorf("Read(%q) should fail", bad)
		}
	}
}

// whileListSum is internal/transform's listSum fixture, the §7.2 story —
// a pointer-chasing accumulation loop that is analyzable only once the
// while loop is a tail-recursive auxiliary method — with a main, so that
// it also emits.
const whileListSum = `
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
  void build();
  void run();
};
driver D;
void acc::sumList(node *head) {
  node *p;
  p = head;
  while (p != NULL) {
    total = total + p->v;
    p = p->next;
  }
}
void driver::build() {
  a = new acc;
  h1 = new node;
  h1->v = 3;
  h1->next = new node;
  h1->next->v = 4;
  h2 = new node;
  h2->v = 5;
}
void driver::run() {
  a->sumList(h1);
  a->sumList(h2);
}
void main() {
  D.build();
  D.run();
  print(D.a->total);
}
`

// whileTwoClass is a two-class shape of the benchmark's synthetic
// corpus: one class of plain accumulators, one whose first operation
// walks a list in a while loop, a chain of operations inside each and a
// driver loop over both.
const whileTwoClass = `
const int NI = 6;

class n01 {
public:
  int v;
  n01 *next;
};

class c01 {
public:
  int s0;
  int s1;
  int cnt;
  n01 *head;
  void op0(int k);
  void op1(int k);
  void op2(int k);
};

class c00 {
public:
  int s0;
  int s1;
  int cnt;
  void op0(int k);
  void op1(int k);
  void op2(int k);
};

class driver {
public:
  int check;
  c00 *a00[NI];
  c01 *a01[NI];
  void setup();
  void run00();
  void run01();
  void report();
};

driver D;

void c00::op0(int k) {
  s0 = s0 + k * 17 + 23;
  cnt = cnt + 1;
  this->op1(k + 31);
}

void c00::op1(int k) {
  s1 = s1 + k * 41 + 12;
  cnt = cnt + 1;
}

void c00::op2(int k) {
  s0 = s0 + k * 29 + 57;
  cnt = cnt + 1;
}

void c01::op0(int k) {
  n01 *p;
  p = head;
  while (p != NULL) {
    s0 = s0 + p->v * 37;
    p = p->next;
  }
  cnt = cnt + 1;
  this->op1(k + 19);
}

void c01::op1(int k) {
  s1 = s1 + k * 53 + 11;
  cnt = cnt + 1;
}

void c01::op2(int k) {
  s0 = s0 + k * 61 + 13;
  cnt = cnt + 1;
}

void driver::setup() {
  int i;
  for (i = 0; i < NI; i += 1) {
    a01[i] = new c01;
    a01[i]->head = new n01;
    a01[i]->head->v = i + 43;
    a01[i]->head->next = new n01;
    a01[i]->head->next->v = i + 71;
  }
  for (i = 0; i < NI; i += 1) {
    a00[i] = new c00;
  }
}

void driver::run00() {
  int i;
  for (i = 0; i < NI; i += 1) {
    a00[i]->op0(i * 13 + 1);
    a00[i]->op2(i + 47);
  }
}

void driver::run01() {
  int i;
  for (i = 0; i < NI; i += 1) {
    a01[i]->op0(i * 59 + 1);
    a01[i]->op2(i + 83);
  }
}

void driver::report() {
  int i;
  check = 0;
  for (i = 0; i < NI; i += 1) {
    check = (check * 31 + a00[i]->s0 + a00[i]->s1 * 7 + a00[i]->cnt) % 1000003;
  }
  for (i = 0; i < NI; i += 1) {
    check = (check * 31 + a01[i]->s0 + a01[i]->s1 * 7 + a01[i]->cnt) % 1000003;
  }
  print(check);
}

void main() {
  D.setup();
  D.run00();
  D.run01();
  D.report();
}
`

// allocated returns the fewest bytes three runs of f allocate, after one
// that fills the process-wide tables (interned symbolic expressions).
func allocated(f func()) uint64 {
	f()
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	return best
}

// emitted renders everything a System says about its program: every
// analysis report, the parallel source and each file of the Go package.
func emitted(t *testing.T, name string, sys *commute.System) map[string]string {
	t.Helper()
	var rep strings.Builder
	for _, r := range sys.Reports() {
		fmt.Fprintf(&rep, "%s parallel=%t reason=%q aux=%d extent=%d indep=%d symbolic=%d conf=%g cond=%q guarded=%t spec=%t\n",
			r.Method.FullName(), r.Parallel, r.Reason, r.AuxiliaryCallSites, r.ExtentSize, r.IndependentPairs,
			r.SymbolicPairs, r.Confidence, r.Condition, r.ConditionalEligible, r.SpeculationEligible)
		for _, p := range r.Pairs {
			fmt.Fprintf(&rep, "  %s / %s independent=%t commutes=%t reason=%q cond=%q\n",
				p.M1.FullName(), p.M2.FullName(), p.Independent, p.Commutes, p.Reason, p.Condition)
		}
	}
	out := map[string]string{"reports": rep.String(), "parallel source": sys.Plan.EmitParallelSource(sys.File)}
	files, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: name})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for f, text := range files {
		out[f] = string(text)
	}
	return out
}

// TestTransformedLoadAnalyzesOnce: a load under Transform parses and
// checks the source it is given, rewrites it, and analyzes only the
// rewritten text. So it costs one parse, one check and the rewrite more
// than loading that text directly — it was a whole second analysis and
// two more plans — and the two Systems say the same thing, byte for byte.
func TestTransformedLoadAnalyzesOnce(t *testing.T) {
	for _, tc := range []struct{ name, source string }{
		{"listsum", whileListSum},
		{"twoclass", whileTwoClass},
	} {
		viaTransform, rewritten, rewrites, err := commute.LoadTransformed(tc.name, tc.source)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rewrites) == 0 {
			t.Fatalf("%s: no while loop was rewritten", tc.name)
		}
		direct, err := commute.LoadOpts(tc.name, rewritten, commute.LoadOptions{})
		if err != nil {
			t.Fatalf("%s: rewritten text: %v", tc.name, err)
		}
		want, got := emitted(t, tc.name, direct), emitted(t, tc.name, viaTransform)
		var keys []string
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if got[k] != want[k] {
				t.Errorf("%s: %s differs between the transformed load and a load of the rewritten text", tc.name, k)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d outputs, want %d", tc.name, len(got), len(want))
		}
		if raceEnabled {
			continue
		}

		load := func(source string, transform bool) uint64 {
			return allocated(func() {
				if _, err := commute.LoadOpts(tc.name, source, commute.LoadOptions{Transform: transform}); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Nothing to rewrite under Transform: the first parse is the program.
		plain, with, none := load(rewritten, false), load(tc.source, true), load(rewritten, true)
		t.Logf("%s: %d bytes to load the rewritten text, %d through the transform, %d under Transform with nothing to rewrite",
			tc.name, plain, with, none)
		if float64(with) > 1.5*float64(plain) {
			t.Errorf("%s: the transformed load allocates %.2f x what loading the rewritten text does (bound 1.5: one analysis)",
				tc.name, float64(with)/float64(plain))
		}
		if float64(none) > 1.1*float64(plain) {
			t.Errorf("%s: a load under Transform with nothing to rewrite allocates %.2f x the plain load (bound 1.1: one parse)",
				tc.name, float64(none)/float64(plain))
		}
	}
}

// compileCold is the sequence every cold consumer runs (commutec, a
// /v1/analyze miss, the benchmark's compile operation): load, warm the
// per-program caches, emit both outputs, release.
func compileCold(name, source string, opts commute.LoadOptions) error {
	sys, err := commute.LoadOpts(name, source, opts)
	if err != nil {
		return err
	}
	sys.Warm()
	defer sys.Release()
	_ = sys.Plan.EmitParallelSource(sys.File)
	_, err = sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: name})
	return err
}

// TestCompileAllocBudget bounds what a cold compile allocates per byte of
// source, 15 % above what it measured when the path last changed. A
// budget is the only thing that notices work done twice or a buffer
// grown piece by piece: the outputs are the same either way.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator does not honour byte budgets")
	}
	for _, tc := range []struct {
		name, source string
		opts         commute.LoadOptions
		budget       float64 // bytes allocated per source byte
	}{
		{"barneshut", src.BarnesHut, commute.LoadOptions{}, 99},
		{"water", src.Water, commute.LoadOptions{}, 120},
		{"twoclass", whileTwoClass, commute.LoadOptions{Transform: true}, 197},
	} {
		got := allocated(func() {
			if err := compileCold(tc.name, tc.source, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
		per := float64(got) / float64(len(tc.source))
		t.Logf("%s: %d bytes allocated for %d of source: %.0f per byte (budget %.0f)", tc.name, got, len(tc.source), per, tc.budget)
		if per > tc.budget {
			t.Errorf("%s: a cold compile allocates %.0f bytes per source byte, budget %.0f", tc.name, per, tc.budget)
		}
	}
}
