package codegen_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps"
	"commute/internal/apps/src"
	"commute/internal/codegen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEmitGoGolden pins the emitted Go source so any unintended change
// to naming, version selection, statement lowering or layout shows up
// as a reviewable diff: the §2 graph traversal — the paper's running
// example — under the proven plan, and under the full plan one program
// per construct the proven plan never emits (condhash: guard wrapper
// and spec_ block; specconflict: the journaled SJ_ family and its
// effect-key sets; water: float fences at every nesting depth). Those
// are the region forms, so they are emitted with the work estimates
// cleared; condhash as built is the declined form — a region root under
// the emitter's regionEntryCost is its serial version behind a counter.
func TestEmitGoGolden(t *testing.T) {
	for _, g := range []struct {
		app    string
		load   func() (*commute.System, error)
		full   bool
		golden map[string]string
	}{
		{"graph", func() (*commute.System, error) { return cleared(apps.Graph(8)) }, false,
			map[string]string{"prog.go": "graph_prog.go.golden", "main.go": "graph_main.go.golden"}},
		{"condhash", func() (*commute.System, error) { return cleared(apps.CondHash(0, 4)) }, true,
			map[string]string{"prog.go": "condhash_prog.go.golden"}},
		{"condhash", func() (*commute.System, error) { return apps.CondHash(0, 4) }, true,
			map[string]string{"prog.go": "condhash_declined_prog.go.golden"}},
		{"specconflict", func() (*commute.System, error) { return cleared(commute.Load("specconflict.mc", src.SpecConflict)) }, true,
			map[string]string{"prog.go": "specconflict_prog.go.golden"}},
		{"water", func() (*commute.System, error) { return cleared(apps.Water(8, 1)) }, true,
			map[string]string{"prog.go": "water_prog.go.golden"}},
	} {
		sys, err := g.load()
		if err != nil {
			t.Fatal(err)
		}
		plan := sys.Plan
		if g.full {
			plan = sys.CondPlan
		}
		files, err := plan.EmitGoPackage(codegen.EmitGoOptions{AppName: g.app})
		if err != nil {
			t.Fatal(err)
		}
		for name, golden := range g.golden {
			path := filepath.Join("testdata", golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, files[name], 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(files[name], want) {
				t.Errorf("%s/%s differs from %s (run with -update to record):\n%s",
					g.app, name, path, files[name])
			}
		}
	}
}

// cleared drops the static work estimates of both plans of a loaded
// system, so that every region root is emitted as a region however
// small the program.
func cleared(sys *commute.System, err error) (*commute.System, error) {
	if err != nil {
		return nil, err
	}
	for _, plan := range []*codegen.Plan{sys.Plan, sys.CondPlan} {
		for _, mp := range plan.Methods {
			mp.Work = 0
		}
	}
	return sys, nil
}

// TestEmitGoDigests pins prog.go of every shipped application (the ten
// programs of e2ebench's compile corpus, at its sizes) and of rulesSrc,
// under both plans, by SHA-256 — byte identity of the emitter across a
// refactor, readable from the diff: testdata/emit_digests.txt changes
// exactly when some emitted byte does. The goldens show what changed;
// this says whether anything did, on three times the programs. The
// digests are of the region forms (estimates cleared); as built, the
// granularity cutoff changes exactly the packages that have a region
// root under the emitter's entry cost.
func TestEmitGoDigests(t *testing.T) {
	var got bytes.Buffer
	var declined []string
	for _, app := range []struct {
		name string
		load func() (*commute.System, error)
	}{
		{"barneshut-64x1", func() (*commute.System, error) { return apps.BarnesHut(64, 1) }},
		{"barneshut-128x2", func() (*commute.System, error) { return apps.BarnesHut(128, 2) }},
		{"water-27x1", func() (*commute.System, error) { return apps.Water(27, 1) }},
		{"water-64x2", func() (*commute.System, error) { return apps.Water(64, 2) }},
		{"graph-64", func() (*commute.System, error) { return apps.Graph(64) }},
		{"graph-1024", func() (*commute.System, error) { return apps.Graph(1024) }},
		{"condhash0-64", func() (*commute.System, error) { return apps.CondHash(0, 64) }},
		{"condhash3-64", func() (*commute.System, error) { return apps.CondHash(3, 64) }},
		{"specdisjoint", func() (*commute.System, error) { return commute.Load("specdisjoint.mc", src.SpecDisjoint) }},
		{"specconflict", func() (*commute.System, error) { return commute.Load("specconflict.mc", src.SpecConflict) }},
		{"rules", func() (*commute.System, error) { return commute.Load("rules.mc", rulesSrc) }},
	} {
		sys, err := app.load()
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		digest := func(plan *codegen.Plan, label string) [sha256.Size]byte {
			files, err := plan.EmitGoPackage(codegen.EmitGoOptions{AppName: app.name})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return sha256.Sum256(files["prog.go"])
		}
		asBuilt := [...][sha256.Size]byte{digest(sys.Plan, app.name+"/Plan"), digest(sys.CondPlan, app.name+"/CondPlan")}
		cleared(sys, nil)
		for i, pl := range []struct {
			name string
			plan *codegen.Plan
		}{{"Plan", sys.Plan}, {"CondPlan", sys.CondPlan}} {
			label := app.name + "/" + pl.name
			sum := digest(pl.plan, label)
			fmt.Fprintf(&got, "%x  %s\n", sum, label)
			if sum != asBuilt[i] {
				declined = append(declined, label)
			}
		}
	}
	// BH, Water and graph roots are all unbounded; the proven plan of
	// condhash and the two spec programs has no region root at all.
	if want := []string{"condhash0-64/CondPlan", "condhash3-64/CondPlan", "specdisjoint/CondPlan",
		"specconflict/CondPlan", "rules/Plan", "rules/CondPlan"}; !slices.Equal(declined, want) {
		t.Errorf("packages the granularity cutoff changes: %v, want %v", declined, want)
	}
	path := filepath.Join("testdata", "emit_digests.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("emitted prog.go digests differ from %s (run with -update to record):\n%s", path, got.Bytes())
	}
}

// assertCanonical is what replaced the formatter in the emitter: every
// Go file of an emitted package parses, and gofmt has nothing to change
// in it.
func assertCanonical(t *testing.T, label string, files map[string][]byte) {
	t.Helper()
	for name, src := range files {
		fmted, err := format.Source(src)
		if err != nil {
			t.Errorf("%s/%s: does not parse: %v", label, name, err)
		} else if !bytes.Equal(fmted, src) {
			t.Errorf("%s/%s: not in gofmt's form; first difference:\n%s", label, name, firstLineDiff(src, fmted))
		}
	}
}

func firstLineDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n  emitted: %q\n  gofmt:   %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("emitted %d lines, gofmt %d", len(g), len(w))
}

// whileSrc needs the §7.2 transform: its loop chases pointers.
const whileSrc = `
class link {
public:
  int v;
  link *next;
};

class list {
public:
  link *head;
  int sum;
  void push(int v);
  void total(int k);
};

list L;

void list::push(int v) {
  link *n;
  n = new link;
  n->v = v;
  n->next = head;
  head = n;
}

void list::total(int k) {
  link *p;
  p = head;
  while (p != NULL && (p->v * k < 100 || k == 0)) {
    sum = sum + p->v * k;
    p = p->next;
  }
}

void main() {
  int i;
  for (i = 0; i < 4; i += 1) {
    L.push(i + 1);
  }
  L.total(2);
  L.total(3);
  print(L.sum);
}
`

// TestEmitGoDeterministic checks, for every shipped application and
// under both the proven and the full plan — guards, speculation
// wrappers and effect-key sets only exist under the latter — that
// generation is reproducible and that what it writes is already in
// gofmt's form: two emissions are byte-identical and formatting is a
// fixed point.
func TestEmitGoDeterministic(t *testing.T) {
	for _, app := range []struct {
		name string
		load func() (*commute.System, error)
	}{
		{"graph", func() (*commute.System, error) { return apps.Graph(8) }},
		{"barneshut", func() (*commute.System, error) { return apps.BarnesHut(16, 1) }},
		{"water", func() (*commute.System, error) { return apps.Water(8, 1) }},
		{"condhash0", func() (*commute.System, error) { return apps.CondHash(0, 4) }},
		{"condhash3", func() (*commute.System, error) { return apps.CondHash(3, 4) }},
		{"specdisjoint", func() (*commute.System, error) { return commute.Load("specdisjoint.mc", src.SpecDisjoint) }},
		{"specconflict", func() (*commute.System, error) { return commute.Load("specconflict.mc", src.SpecConflict) }},
		{"while", func() (*commute.System, error) {
			return commute.LoadOpts("while.mc", whileSrc, commute.LoadOptions{Transform: true})
		}},
	} {
		sys, err := app.load()
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		for _, pl := range []struct {
			name string
			plan *codegen.Plan
		}{{"Plan", sys.Plan}, {"CondPlan", sys.CondPlan}} {
			label := app.name + "/" + pl.name
			a, err := pl.plan.EmitGoPackage(codegen.EmitGoOptions{AppName: app.name})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b, err := pl.plan.EmitGoPackage(codegen.EmitGoOptions{AppName: app.name})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for name := range a {
				if !bytes.Equal(a[name], b[name]) {
					t.Errorf("%s/%s: two emissions differ", label, name)
				}
			}
			assertCanonical(t, label, a)
		}
	}
}

// rulesSrc has one case for each layout rule the emitter applies
// itself now that no formatter runs after it; TestEmitGoLayoutRules
// names them.
const rulesSrc = `
const int N = 4;
const int LONGER_INT_NAME = -3;
const double EPS = 0.5;
const double A_LONG_FLOAT_NAME = -2.25e-3;

class base {
public:
  double mass;
  int id;
  void bump(int k);
};

class particle_with_a_rather_long_class_name : public base {
public:
  double p;
  double trail_with_a_long_field_name[N];
  int hits;
  int last;
  double f2(double a, int n);
  void step(double dt, int k);
};

class world {
public:
  particle_with_a_rather_long_class_name *items[N];
  double scale;
  void setup();
  void bumpall();
  void run(double dt);
};

world W;

void base::bump(int k) {
  id = id + k;
}

double particle_with_a_rather_long_class_name::f2(double a, int n) {
  return a * n + mass;
}

void particle_with_a_rather_long_class_name::step(double dt, int k) {
  int i;
  double x;
  boolean b;
  i = k % N;
  x = dt * mass + EPS;
  x = (x * dt + dt * mass) / (x - A_LONG_FLOAT_NAME);
  x = this->f2(x * dt, i + 1);
  trail_with_a_long_field_name[(i + 1) % N] = trail_with_a_long_field_name[(i + 2) % N] * dt + x;
  p += x * dt;
  b = (i < k || x * 2.0 < dt) && (hits == LONGER_INT_NAME || i + 1 > k);
  if ((i < k || x * 2.0 < dt) && (hits == 0 || !b)) {
    hits = hits + 1;
  }
  last = k;
}

void world::setup() {
  int i;
  for (i = 0; i < N; i += 1) {
    items[i] = new particle_with_a_rather_long_class_name;
    items[i]->mass = 1.0 + i;
  }
  scale = 2.0;
}

void world::bumpall() {
  int i;
  for (i = 0; i < N; i += 1) {
    items[i]->bump(i);
    items[i]->bump(i + 1);
  }
}

void world::run(double dt) {
  int i;
  for (i = 0; i < N; i += 1) {
    items[i]->step(dt * scale + i, i * 2 + 1);
  }
}

void main() {
  W.setup();
  W.bumpall();
  W.run(0.125);
}
`

// TestEmitGoLayoutRules: the purpose-built program is a gofmt fixed
// point, and each rule's case is really in it — the lines below are
// gofmt's own output for it, recorded from the formatter-backed
// emitter.
func TestEmitGoLayoutRules(t *testing.T) {
	sys, err := cleared(commute.Load("rules.mc", rulesSrc))
	if err != nil {
		t.Fatal(err)
	}
	files, err := sys.CondPlan.EmitGoPackage(codegen.EmitGoOptions{AppName: "rules"})
	if err != nil {
		t.Fatal(err)
	}
	assertCanonical(t, "rules", files)
	prog := "\n" + string(files["prog.go"])
	for _, c := range []struct{ rule, want string }{
		{"const block: name, type and value columns", `
const (
	C_A_LONG_FLOAT_NAME float64 = -0.00225
	C_EPS               float64 = 0.5
	C_LONGER_INT_NAME   int64   = -3
	C_N                 int64   = 4
)
`},
		{"struct fields, with a lock", `
type T_base struct {
	F_mass float64
	F_id   int64
	mu_    sync.Mutex
}
`},
		{"struct fields after an embedded base", `
type T_particle_with_a_rather_long_class_name struct {
	T_base
	F_p                            float64
	F_trail_with_a_long_field_name [4]float64
	F_hits                         int64
	F_last                         int64
}
`},
		{"a one-line function past 100 bytes is broken", `
func (o *T_particle_with_a_rather_long_class_name) cls_() string {
	return "particle_with_a_rather_long_class_name"
}
`},
		{"a one-line function within 100 bytes is kept", `
func (o *T_base) cls_() string { return "base" }
`},
		{"hoisted locals", `
	var (
		v_i int64
		v_x float64
		v_b bool
	)
`},
		{"float arithmetic at depth 1", `
	v_x = float64(float64(v_dt*o.as_base().F_mass) + C_EPS)
`},
		{"nested float arithmetic", `
	v_x = float64(float64(float64(v_x*v_dt)+float64(v_dt*o.as_base().F_mass)) / float64(v_x-C_A_LONG_FLOAT_NAME))
`},
		{"arithmetic among several call arguments", `
	v_x = o.S_f2(float64(v_x*v_dt), (v_i + 1))
`},
		{"arithmetic inside an index, and an indexed operand", `
	o.F_trail_with_a_long_field_name[((v_i + 1) % C_N)] = float64(float64(o.F_trail_with_a_long_field_name[((v_i+2)%C_N)]*v_dt) + v_x)
`},
		{"a compound assignment reads its target one level down", `
	o.F_p = float64(o.F_p + float64(v_x*v_dt))
`},
		{"a control clause loses only its outermost parentheses", `
	if ((v_i < v_k) || (float64(v_x*2.0) < v_dt)) && ((o.F_hits == 0) || (!v_b)) {
`},
		{"the same condition as a value keeps them", `
	v_b = (((v_i < v_k) || (float64(v_x*2.0) < v_dt)) && ((o.F_hits == C_LONGER_INT_NAME) || ((v_i + 1) > v_k)))
`},
		{"for clause", `
	for v_i < C_N {
`},
		{"journaled operands: a SpecStore argument is at depth 2", `
	nativert.SpecStore(sj_, t3_, float64(t4_+t2_), "particle_with_a_rather_long_class_name.p")
`},
		{"region wrapper: the journaled root is a function literal on three lines", `
	switch rt_.Enter(&rt_.Stats, nativert.Root{SpecEligible: true, Confidence: 0.6666666666666666}, nil) {
	case nativert.Speculative:
		if !rt_.RunSpeculative(specRd_world_run, specWr_world_run, func(w *rtkit.Worker, sr_ *nativert.SpecRegion, sj_ *nativert.SpecJournal) {
			o.SJ_run(w, sr_, sj_, v_dt)
		}) {
			o.S_run(v_dt)
		}
	default:
		o.S_run(v_dt)
	}
`},
		{"effect keys: alignment sections at the 40-byte / 2.5x rule", `
var specRd_world_run = map[string]bool{
	"base.mass": true,
	"particle_with_a_rather_long_class_name.p":                            true,
	"particle_with_a_rather_long_class_name.trail_with_a_long_field_name": true,
	"particle_with_a_rather_long_class_name.hits":                         true,
	"world.items": true,
	"world.scale": true,
}
`},
	} {
		if !strings.Contains(prog, c.want) {
			t.Errorf("%s: prog.go lacks%s", c.rule, c.want)
		}
	}
	if strings.HasSuffix(prog, "\n\n") {
		t.Error("prog.go ends in a blank line")
	}
}

// TestEmitGoAppName: main.go is a literal template, stored in gofmt's
// form, with the app name substituted into its first line, so an odd
// name must still leave a gofmt-stable file that names it — in prog.go
// too, whose header carries the same line — and a name that would break
// out of the header comment is refused rather than emitted.
func TestEmitGoAppName(t *testing.T) {
	sys, err := apps.Graph(8)
	if err != nil {
		t.Fatal(err)
	}
	const odd = "a  b\t(c) `d` */ // $1 @APP@"
	files, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: odd})
	if err != nil {
		t.Fatal(err)
	}
	main := files["main.go"]
	if !bytes.HasPrefix(main, []byte("// Code generated by commutec -emit go ("+odd+"). DO NOT EDIT.\n")) {
		t.Errorf("main.go header does not carry the app name:\n%s", main[:bytes.IndexByte(main, '\n')])
	}
	assertCanonical(t, "odd app name", files)
	for _, bad := range []string{"a\nb", "a\rb"} {
		if _, err := sys.Plan.EmitGoPackage(codegen.EmitGoOptions{AppName: bad}); err == nil {
			t.Errorf("app name %q accepted", bad)
		}
	}
}

// TestEmitGoLowersSpeculativePlans: speculative extents lower to
// journaled SJ_ method versions plus a policy-dispatching R_ wrapper —
// the native backend buffers writes in nativert.SpecJournal instead of
// refusing the plan.
func TestEmitGoLowersSpeculativePlans(t *testing.T) {
	sys, err := commute.Load("spec.mc", src.SpecDisjoint)
	if err != nil {
		t.Fatal(err)
	}
	plan := codegen.BuildWithOptions(sys.Analysis, codegen.Options{SpeculateRejected: true})
	hasSpec := false
	for _, mp := range plan.Methods {
		mp.Work = 0 // 16 cells: emit the region all the same
		if mp.Speculative {
			hasSpec = true
		}
	}
	if !hasSpec {
		t.Skip("no speculative methods in plan")
	}
	files, err := plan.EmitGoPackage(codegen.EmitGoOptions{AppName: "spec"})
	if err != nil {
		t.Fatalf("EmitGoPackage refused a speculative plan: %v", err)
	}
	prog := string(files["prog.go"])
	for _, want := range []string{"SJ_", "nativert.SpecStore", "case nativert.Speculative:", "rt_.RunSpeculative(specRd_table_fill, specWr_table_fill, "} {
		if !strings.Contains(prog, want) {
			t.Errorf("prog.go missing %q", want)
		}
	}
	// The policy, its flags and the counters are nativert's: main.go
	// declares the driver the wrappers read and hands it the program.
	main := string(files["main.go"])
	for _, want := range []string{"var rt_ nativert.Driver", "rt_.Main(initGlobals, run_, dumpState)"} {
		if !strings.Contains(main, want) {
			t.Errorf("main.go missing %q", want)
		}
	}
	if strings.Contains(main, "flag.") {
		t.Errorf("main.go defines flags:\n%s", main)
	}
	assertCanonical(t, "spec", files)
}
