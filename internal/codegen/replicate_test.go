package codegen

import (
	"slices"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// checked parses and type checks a program.
func checked(t *testing.T, source string) *types.Program {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestReplicableDetection: accumulates, the detector under Replicable,
// takes exactly the updates a replica that starts at zero computes right
// — adding into an int or double field, or an element of one, what
// reads no receiver field — and refuses each shape that would leave a
// wrong delta in it: a doubling (v = v + v, v += v), a product, an index
// whose shape it does not know or that differs between target and
// source, another receiver field read (it reads 0 on a replica), a
// double truncated into an int, and a call. On the applications it
// flags the force bank's and the sums' accumulations and Barnes-Hut's
// vector add, and neither an operation that reads what it updates nor
// body::gravsub, which invokes acc.vecAdd.
func TestReplicableDetection(t *testing.T) {
	rows := []struct {
		name, params, body string
		want               []string
	}{
		{"plus-assign", "double e", "pot += e;", []string{"acc.pot"}},
		{"minus-assign", "double e", "pot -= e;", []string{"acc.pot"}},
		{"source first", "double e", "pot = pot + e;", []string{"acc.pot"}},
		{"source last", "double e", "this->pot = e + this->pot;", []string{"acc.pot"}},
		{"elements", "int j, double e", "bins[j] += e; bins[j + 1] = bins[j + 1] + e; n += j;", []string{"acc.bins", "acc.n"}},
		{"through a local", "double e", "double t; t = e * 2.0; pot += t;", []string{"acc.pot"}},
		{"doubling", "", "pot = pot + pot;", nil},
		{"compound doubling", "", "pot += pot;", nil},
		{"product", "double e", "pot *= e;", nil},
		{"explicit product", "double e", "pot = pot * e;", nil},
		{"unknown index", "int i, int j, double e", "bins[-i] = bins[-j] + e;", nil},
		{"unknown index twice", "int i, double e", "bins[-i] = bins[-i] + e;", nil},
		{"another element", "int i, int j, double e", "bins[i] = bins[j] + e;", nil},
		{"another field", "double e", "pot += scale * e;", nil},
		{"its own field", "double e", "if (pot > 0.0) { pot += e; }", nil},
		{"int truncates", "double e", "n += e;", nil},
		{"overwrite", "double e", "pot = e;", nil},
		{"call", "double e", "pot += e; this->touch();", nil},
	}
	for _, row := range rows {
		prog := checked(t, `
class acc {
public:
  int n;
  double pot;
  double scale;
  double bins[8];
  void touch();
  void op(`+row.params+`);
};

acc A;

void acc::touch() {
}

void acc::op(`+row.params+`) {
  `+row.body+`
}

void main() {
}
`)
		var got []string
		for _, f := range accumulates(prog, prog.MethodByFullName("acc::op")) {
			got = append(got, f.Class.Name+"."+f.Name)
		}
		if !slices.Equal(got, row.want) {
			t.Errorf("%s: %s accumulates %v, want %v", row.name, row.body, got, row.want)
		}
	}

	for source, want := range map[string]map[string]bool{
		src.Water: {
			"fbank::add":    true,
			"sums::addPot":  true,
			"sums::addKin":  true,
			"h2o::momenta":  false, // reads vx/vy/vz after updating them
			"h2o::predict":  false, // reads px after updating it (wrap)
			"h2o::load":     false, // overwrites, not accumulation
			"water::interf": false, // no receiver writes at all
		},
		src.BarnesHut: {
			"vector::vecAdd": true,
			"body::gravsub":  false, // phi -= d, but it also invokes acc.vecAdd
		},
	} {
		prog := checked(t, source)
		plan := Build(core.New(prog))
		for name, want := range want {
			if got := plan.Methods[prog.MethodByFullName(name)].Replicable; got != want {
				t.Errorf("%s replicable = %v, want %v", name, got, want)
			}
		}
	}
}

// TestReplicaSiteRule is the rule replicate applies, one program per
// condition: the answer MethodPlan.Call gives at the site in the plan
// every parallel execution runs, in the versions the site's body runs
// as, and the reason a candidate keeps its lock. Only the accumulation
// on a global no other operation of its region reads is replicated; one
// through a pointer, one whose field acc::bump also reads in the region
// (on another object, which the effects cannot tell apart), one whose
// callee makes a call, and one in a speculative extent keep the mutex
// version. One through this is no candidate either: acc::twice's mutex
// version holds its receiver's lock through the serial add (coarsen).
func TestReplicaSiteRule(t *testing.T) {
	const (
		ser = VersionSerial
		par = VersionParallel
		mut = VersionMutex
	)
	locked := SiteCall{Run: mut, Release: true}
	rows := []struct {
		name, visit    string
		caller, callee string // the site: the caller's first call of the callee
		in             []Version
		want           SiteCall
		refused        string // "-": no candidate
	}{
		{"global", "A.add(w);", "item::visit", "acc::add", []Version{par, mut},
			SiteCall{Run: ser, Replica: true, Release: true}, ""},
		{"this", "A.twice(w);", "acc::twice", "acc::add", []Version{mut}, SiteCall{Run: ser}, "-"},
		{"pointer", "mine->add(w);", "item::visit", "acc::add", []Version{mut}, locked, "-"},
		{"read in the region", "A.add(w);\n  mine->bump(w);", "item::visit", "acc::add", []Version{mut},
			locked, "A.total read by acc::bump in region item::visit"},
		{"callee calls", "A.addTouch(w);", "item::visit", "acc::addTouch", []Version{mut}, locked, "-"},
		{"speculative", "A.add(w);\n  A.note(w);", "item::visit", "acc::add", []Version{mut}, locked, "-"},
	}
	for _, row := range rows {
		prog := checked(t, `
class acc {
public:
  int total;
  int last;
  void add(int v);
  void bump(int v);
  void twice(int v);
  void addTouch(int v);
  void touch();
  void note(int v);
};

class item {
public:
  int w;
  acc *mine;
  void visit();
};

class driver {
public:
  item *items[64];
  int n;
  void build(int k);
  void run();
};

acc A;
driver D;

void acc::add(int v) {
  total += v;
}

void acc::bump(int v) {
  total = total + v * 2;
}

void acc::twice(int v) {
  this->add(v);
  this->add(v);
}

void acc::addTouch(int v) {
  total += v;
  this->touch();
}

void acc::touch() {
}

void acc::note(int v) {
  last = v;
}

void item::visit() {
  `+row.visit+`
}

void driver::build(int k) {
  n = k;
  for (int i = 0; i < k; i++) {
    items[i] = new item;
    items[i]->w = i * 3 + 1;
    items[i]->mine = new acc;
  }
}

void driver::run() {
  for (int i = 0; i < n; i++) {
    items[i]->visit();
  }
}

void main() {
  D.build(64);
  D.run();
  print(A.total);
}
`)
		plan := BuildWithOptions(core.New(prog), Options{ConditionalGuards: true, SpeculateRejected: true, Contention: true})
		caller := prog.MethodByFullName(row.caller)
		var site *types.CallSite
		for _, cs := range caller.CallSites {
			if site == nil && cs.Callee.FullName() == row.callee {
				site = cs
			}
		}
		mp := plan.Methods[caller]
		if !mp.Parallel || mp.Speculative != (row.name == "speculative") {
			t.Fatalf("%s: %s is planned parallel=%t speculative=%t", row.name, row.caller, mp.Parallel, mp.Speculative)
		}
		for _, in := range row.in {
			if got := mp.Call(in, site, plan.Methods[site.Callee]); got != row.want {
				t.Errorf("%s: %s at %s in version %d: %+v, want %+v", row.name, row.callee, row.caller, in, got, row.want)
			}
		}
		refused := "-"
		for _, r := range plan.Replicas {
			if r.Site == site {
				refused = r.Refused
			}
		}
		if refused != row.refused {
			t.Errorf("%s: refused %q, want %q", row.name, refused, row.refused)
		}
		global := row.want.Replica
		if reps := plan.regionReplicas(prog.MethodByFullName("driver::run")); (len(reps) == 1 && reps[0].Name == "A") != global {
			t.Errorf("%s: driver::run's join folds %v", row.name, reps)
		}
		if folds := plan.Folds[prog.Classes["acc"]]; global != (len(folds) == 1 && folds[0].Name == "total") {
			t.Errorf("%s: folds %v", row.name, folds)
		}
	}
}
