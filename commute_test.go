package commute_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/printer"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/server"
	"commute/internal/server/api"
	"commute/internal/tracer"
	"commute/internal/transform/transformtest"
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

// TestCompileResolvesNothing: loading a program and what commutec prints
// of it — the reports, the parallel source, the emitted Go package —
// read the checker's layouts and build no interpreter code.
func TestCompileResolvesNothing(t *testing.T) {
	for _, app := range []struct{ name, source string }{
		{"barneshut", src.BarnesHut},
		{"water", src.Water},
		{"graph", src.Graph},
	} {
		sys, err := commute.Load(app.name, app.source)
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		for _, m := range sys.Prog.Methods {
			sys.Report(m.FullName())
		}
		sys.Plan.EmitParallelSource(sys.File)
		if _, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: app.name}); err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		if sys.CodeBuilt() {
			t.Errorf("%s: compiling built the interpreter code", app.name)
		}
	}
}

// TestAnalyzeDoesNotWarm: a program that is only analyzed holds no
// interpreter code, whatever its plan reads (Water's replication reads
// class layouts); the first /v1/run of it builds the code and prints
// what the tree walker prints.
func TestAnalyzeDoesNotWarm(t *testing.T) {
	srv := server.New(server.Config{})
	post := func(path string, req any) []byte {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, app := range []string{"graph", "water"} {
		source := api.SourceRequest{App: app}
		post("/v1/analyze", api.AnalyzeRequest{SourceRequest: source})
		key, err := server.FingerprintRequest(source)
		if err != nil {
			t.Fatal(err)
		}
		sys, ok := srv.Cache().Peek(key)
		if !ok {
			t.Fatalf("%s: the analyzed program is not cached", app)
		}
		if sys.CodeBuilt() {
			t.Fatalf("%s: an analyze built the interpreter code", app)
		}

		var rr api.RunResponse
		if err := json.Unmarshal(post("/v1/run", api.RunRequest{SourceRequest: source, Mode: "serial"}), &rr); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := sys.RunSerialEngine(interp.EngineWalk, &want); err != nil {
			t.Fatal(err)
		}
		if rr.Cache != "hit" || rr.Output != want.String() {
			t.Fatalf("%s: run after analyze: cache %q, output %q; want hit, %q", app, rr.Cache, rr.Output, want.String())
		}
		if !sys.CodeBuilt() {
			t.Fatalf("%s: a run left the entry without code", app)
		}
	}
}

// TestTraceRepeats: two traces of one System are equal, object
// identities included: every interpreter numbers its objects from one.
func TestTraceRepeats(t *testing.T) {
	sys, err := commute.Load("graph.mc", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	var traces [2]*tracer.Trace
	for i := range traces {
		if traces[i], err = sys.Trace(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Error("two traces of one System differ")
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

// unrollNest is the oracle row coarse-alias's busy-wait nest on its
// own, n iterations a loop, accumulating step: the pair test unrolls
// cnt::bump's two levels of loops, 2n² accumulations a body and four
// bodies a pair. With step j (coarse-alias's) each sum ends in a
// constant, which the executor folds; with j * 2 it cannot, so the sum
// nests a level an accumulation and only simplifies to t + c.
func unrollNest(n int, step string) string {
	return strings.NewReplacer("BOUND", strconv.Itoa(n), "STEP", step).Replace(`
class cnt {
public:
  int total;
  void bump(int v);
};

class driver {
public:
  cnt *slots[8];
  void run();
};

driver D;

void cnt::bump(int v) {
  int t = total;
  for (int i = 0; i < BOUND; i++) {
    for (int j = 0; j < BOUND; j++) {
      t = t + STEP;
    }
    for (int j = 0; j < BOUND; j++) {
      t = t - STEP;
    }
  }
  total = t + v;
}

void driver::run() {
  for (int i = 0; i < 8; i++) {
    slots[i]->bump(i);
  }
}

void main() {
  for (int i = 0; i < 8; i++) {
    D.slots[i] = new cnt;
  }
  D.run();
  print(D.slots[3]->total);
}
`)
}

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

// whileDivProbe has a while loop the transform rewrites, an extent
// operation whose value is used (a report reason that names a position)
// and, after the loop, a division by zero (a run-time error that names
// one). Its layout is not the printer's, so a position in a printed
// rewrite would differ from one in this text.
const whileDivProbe = `
class node { public: int v; node *next; };
class acc {
public:
  int total;
  int d;
  void sumList(node *head);
  int bump(int v);
};
class driver { public: acc *a; node *h; int last; void build(); void run(); };
driver D;


void acc::sumList(node *head) {
  node *p;
  p = head;
  while (p != NULL) { total = total + p->v; p = p->next; }
}
int acc::bump(int v) { total = total + v; return total; }
void driver::build() { a = new acc; h = new node; h->v = 7; }
void driver::run() {
  a->sumList(h);
  last =   a->bump(1);
}
void main() {
  D.build();
  D.run();
  D.last = D.a->total / D.a->d;
}
`

// posOf returns the line:col at which sub starts in source.
func posOf(t *testing.T, source, sub string) string {
	t.Helper()
	i := strings.Index(source, sub)
	if i < 0 {
		t.Fatalf("%q not in the source", sub)
	}
	line := strings.Count(source[:i], "\n") + 1
	return fmt.Sprintf("%d:%d", line, i-strings.LastIndexByte(source[:i], '\n'))
}

// TestTransformPositionsPointIntoTheSource: a load under Transform names
// the positions of the text it was given, in a report's reason and in a
// run-time error, as a plain load does; not those of the printed
// rewrite, a text no caller is given.
func TestTransformPositionsPointIntoTheSource(t *testing.T) {
	bump := posOf(t, whileDivProbe, "bump(1)")
	div := posOf(t, whileDivProbe, "/ D.a->d")
	for _, transform := range []bool{false, true} {
		sys, err := commute.LoadOpts("probe.mc", whileDivProbe, commute.LoadOptions{Transform: transform})
		if err != nil {
			t.Fatal(err)
		}
		if transform != (len(sys.Rewrites) == 1) {
			t.Fatalf("transform=%t: rewrites %v", transform, sys.Rewrites)
		}
		want := "the return value of extent operation acc::bump is used at " + bump
		if r := sys.Report("driver::run"); r.Reason != want {
			t.Errorf("transform=%t: driver::run's reason is %q, want %q", transform, r.Reason, want)
		}
		_, err = sys.RunSerial(io.Discard)
		if want := "integer division by zero at " + div; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("transform=%t: the run failed with %v, want %q", transform, err, want)
		}
	}
}

// TestInPlaceMatchesRoundTrip: the rewrite in place, checked again,
// says what printing the rewrite and loading the text says.
func TestInPlaceMatchesRoundTrip(t *testing.T) {
	for _, tc := range []struct{ name, source string }{
		{"listsum", whileListSum},
		{"twoclass", whileTwoClass},
		{"divprobe", whileDivProbe},
	} {
		diff, checked := transformtest.Diff(tc.name, tc.source)
		if !checked {
			t.Errorf("%s does not load", tc.name)
		}
		if diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
	}
}

// TestTransformedLoadAnalyzesOnce: a load under Transform parses and
// checks the source it is given, rewrites the checked tree in place and
// checks it again. So it costs one check and the rewrite more than
// loading the printed rewrite directly, and no second parse.
// TestInPlaceMatchesRoundTrip checks that the two say the same thing.
func TestTransformedLoadAnalyzesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator does not honour byte budgets")
	}
	for _, tc := range []struct{ name, source string }{
		{"listsum", whileListSum},
		{"twoclass", whileTwoClass},
	} {
		sys, err := commute.LoadOpts(tc.name, tc.source, commute.LoadOptions{Transform: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(sys.Rewrites) == 0 {
			t.Fatalf("%s: no while loop was rewritten", tc.name)
		}
		rewritten := printer.File(sys.File)
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
		if float64(with) > 1.3*float64(plain) {
			t.Errorf("%s: the transformed load allocates %.2f x what loading the rewritten text does (bound 1.3: one check more, no second parse)",
				tc.name, float64(with)/float64(plain))
		}
		if float64(none) > 1.1*float64(plain) {
			t.Errorf("%s: a load under Transform with nothing to rewrite allocates %.2f x the plain load (bound 1.1: one parse)",
				tc.name, float64(none)/float64(plain))
		}
	}
}

// TestEmitAllocBudget bounds what each emitter allocates per byte it
// returns, 15 % above what it measured when the emitters last changed.
// Both render straight into scratch buffers reused across calls and copy
// out the exact result once: the copy is a byte per byte, and the rest is
// their bookkeeping (the versions and helpers that exist, the cells of
// aligned declaration blocks). A renderer that returns strings again, or
// a buffer grown piece by piece, shows here first. The programs are the
// shipped applications and eight oracle.Draw programs.
func TestEmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator does not honour byte budgets")
	}
	sources := []string{src.BarnesHut, src.Water, src.Graph, src.SpecDisjoint, src.SpecConflict, src.CondHashBase + src.CondHashMain(0, 6)}
	r := rand.New(rand.NewSource(1))
	for range 8 {
		sources = append(sources, oracle.Draw(r))
	}
	var listing, pkg [2]uint64 // bytes allocated, bytes returned
	for i, source := range sources {
		sys, err := commute.Load(fmt.Sprintf("p%d", i), source)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		listing[0] += allocated(func() { out = sys.Plan.EmitParallelSource(sys.File) })
		listing[1] += uint64(len(out))
		var files map[string][]byte
		pkg[0] += allocated(func() { files, err = sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "p"}) })
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			pkg[1] += uint64(len(f))
		}
	}
	for _, e := range []struct {
		name   string
		got    [2]uint64
		budget float64 // bytes allocated per byte returned
	}{
		{"EmitParallelSource", listing, 1.28},
		{"EmitGoPackage", pkg, 2.47},
	} {
		per := float64(e.got[0]) / float64(e.got[1])
		t.Logf("%s: %d bytes allocated for %d returned: %.2f per byte (budget %.2f)", e.name, e.got[0], e.got[1], per, e.budget)
		if per > e.budget {
			t.Errorf("%s allocates %.2f bytes per byte it returns, budget %.2f", e.name, per, e.budget)
		}
	}
}

// compileCold is the sequence every cold consumer runs (commutec, a
// /v1/analyze miss, the benchmark's compile operation): load, build the
// interpreter code, emit both outputs.
func compileCold(name, source string, opts commute.LoadOptions) error {
	sys, err := commute.LoadOpts(name, source, opts)
	if err != nil {
		return err
	}
	sys.Warm()
	_ = sys.Plan.EmitParallelSource(sys.File)
	_, err = sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: name})
	return err
}

// TestCompileAllocBudget bounds what a cold compile allocates per byte of
// source, 15 % above what it measured when the path last changed, and
// what the analysis alone allocates (core.New(prog).AnalyzeAll() on a
// checked program), so that a change to the compile's other layers
// cannot hide growth in the pair test. A budget is the only thing that
// notices work done twice or a buffer grown piece by piece: the outputs
// are the same either way.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator does not honour byte budgets")
	}
	check := func(what, name string, source string, budget float64, run func()) {
		t.Helper()
		got := allocated(run)
		per := float64(got) / float64(len(source))
		t.Logf("%s %s: %d bytes allocated for %d of source: %.0f per byte (budget %.0f)", what, name, got, len(source), per, budget)
		if per > budget {
			t.Errorf("%s %s allocates %.0f bytes per source byte, budget %.0f", what, name, per, budget)
		}
	}
	for _, tc := range []struct {
		name, source string
		opts         commute.LoadOptions
		budget       float64 // bytes allocated per source byte
	}{
		{"barneshut", src.BarnesHut, commute.LoadOptions{}, 65},
		{"water", src.Water, commute.LoadOptions{}, 74},
		{"twoclass", whileTwoClass, commute.LoadOptions{Transform: true}, 105},
		// Folding keeps coarse-alias's sums t + c; a rendered key per
		// nested sum would make the second row quadratic.
		{"unrollnest", unrollNest(64, "j"), commute.LoadOptions{}, 1366},
		{"unrollnest-nested", unrollNest(32, "j * 2"), commute.LoadOptions{}, 3773},
	} {
		check("a cold compile of", tc.name, tc.source, tc.budget, func() {
			if err := compileCold(tc.name, tc.source, tc.opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name, source string
		budget       float64
	}{
		{"barneshut", src.BarnesHut, 27},
		{"water", src.Water, 38},
	} {
		sys, err := commute.Load(tc.name, tc.source)
		if err != nil {
			t.Fatal(err)
		}
		check("the analysis of", tc.name, tc.source, tc.budget, func() { core.New(sys.Prog).AnalyzeAll() })
	}
}
