package core_test

import (
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

func analyze(t *testing.T, source string) (*types.Program, *core.Analysis) {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog, core.New(prog)
}

func report(t *testing.T, p *types.Program, a *core.Analysis, full string) *core.MethodReport {
	t.Helper()
	m := p.MethodByFullName(full)
	if m == nil {
		t.Fatalf("method %s not found", full)
	}
	return a.IsParallel(m)
}

// TestGraphTraversalParallel is the paper's §2 headline example: the
// recursive visit traversal commutes and is marked parallel.
func TestGraphTraversalParallel(t *testing.T) {
	p, a := analyze(t, src.Graph)
	r := report(t, p, a, "builder::traverse")
	if !r.Parallel {
		t.Fatalf("traverse should be parallel; reason: %s", r.Reason)
	}
	r = report(t, p, a, "graph::visit")
	if !r.Parallel {
		t.Fatalf("visit should be parallel; reason: %s", r.Reason)
	}
	// The builder is serial: it allocates objects and writes other
	// objects' state.
	r = report(t, p, a, "builder::build")
	if r.Parallel {
		t.Fatal("build must be serial")
	}
}

// TestBarnesHutParallelMethods checks the paper's central result: the
// force, velocity, and position phases are parallel; tree building and
// center-of-mass are serial.
func TestBarnesHutParallelMethods(t *testing.T) {
	p, a := analyze(t, src.BarnesHut)
	wantParallel := []string{
		"nbody::computeForces",
		"nbody::advanceVelocities",
		"nbody::advancePositions",
		"nbody::resetForces",
		"body::walksub",
		"body::gravsub",
	}
	for _, name := range wantParallel {
		r := report(t, p, a, name)
		if !r.Parallel {
			t.Errorf("%s should be parallel; reason: %s", name, r.Reason)
		}
	}
	wantSerial := []string{
		"nbody::buildTree",
		"nbody::insert",
		"nbody::computeCOM",
		"nbody::computeCOMCell",
		"nbody::init",
		"nbody::step",
	}
	for _, name := range wantSerial {
		r := report(t, p, a, name)
		if r.Parallel {
			t.Errorf("%s should be serial", name)
		}
	}
}

// TestBarnesHutForceStatistics checks the Table 2 Force-extent shape:
// extent size 6, with computeInter and subdivp auxiliary.
func TestBarnesHutForceStatistics(t *testing.T) {
	p, a := analyze(t, src.BarnesHut)
	r := report(t, p, a, "nbody::computeForces")
	if !r.Parallel {
		t.Fatalf("computeForces not parallel: %s", r.Reason)
	}
	if r.ExtentSize != 6 {
		t.Errorf("Force extent size = %d, want 6", r.ExtentSize)
	}
	if r.AuxiliaryCallSites != 2 {
		t.Errorf("Force auxiliary call sites = %d, want 2", r.AuxiliaryCallSites)
	}
	total := r.IndependentPairs + r.SymbolicPairs
	if total != 21 { // C(6,2) + 6 unordered pairs including self-pairs
		t.Errorf("Force pairs = %d, want 21", total)
	}
	if r.SymbolicPairs != 2 { // (gravsub,gravsub), (vecAdd,vecAdd)
		t.Errorf("Force symbolically executed pairs = %d, want 2", r.SymbolicPairs)
	}

	r = report(t, p, a, "nbody::advanceVelocities")
	if r.ExtentSize != 3 {
		t.Errorf("Velocity extent size = %d, want 3", r.ExtentSize)
	}
	if r.IndependentPairs != 5 || r.SymbolicPairs != 1 {
		t.Errorf("Velocity pairs = %d independent + %d symbolic, want 5+1",
			r.IndependentPairs, r.SymbolicPairs)
	}
}

// TestAuxiliaryAblation reproduces the paper's Table 2 observation: with
// auxiliary operation recognition disabled, none of the extents can be
// parallelized.
func TestAuxiliaryAblation(t *testing.T) {
	p, a := analyze(t, src.BarnesHut)
	a.DisableAuxiliary = true
	for _, name := range []string{
		"nbody::computeForces", "nbody::advanceVelocities", "nbody::advancePositions",
	} {
		r := report(t, p, a, name)
		if r.Parallel {
			t.Errorf("%s should fail without auxiliary operations", name)
		}
	}
}

// TestNonCommutingPairRejected: a method pair performing non-commuting
// updates (overwrite vs accumulate) must be rejected.
func TestNonCommutingPairRejected(t *testing.T) {
	_, a := analyze(t, `
class counter {
public:
  int n;
  void add(int k);
  void set(int k);
};
class driver {
public:
  counter *c;
  int dummy;
  void run();
};
void counter::add(int k) { n = n + k; }
void counter::set(int k) { n = k; }
void driver::run() {
  c->add(1);
  c->set(5);
}
`)
	pr := a.Prog
	run := pr.MethodByFullName("driver::run")
	r := a.IsParallel(run)
	if r.Parallel {
		t.Fatal("run must not be parallel: add and set do not commute")
	}

	// add alone commutes.
	addOnly, a2 := func() (*types.Program, *core.Analysis) {
		f, _ := parser.Parse("x.mc", `
class counter {
public:
  int n;
  void add(int k);
};
class driver {
public:
  counter *c;
  int dummy;
  void run();
};
void counter::add(int k) { n = n + k; }
void driver::run() {
  c->add(1);
  c->add(2);
}
`)
		prog, err := types.Check(f)
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		return prog, core.New(prog)
	}()
	r2 := a2.IsParallel(addOnly.MethodByFullName("driver::run"))
	if !r2.Parallel {
		t.Fatalf("additive run should be parallel; reason: %s", r2.Reason)
	}
}

// TestMultiplicationCommutes: multiplicative updates commute with each
// other but not with additive updates.
func TestMultiplicationCommutes(t *testing.T) {
	_, a := analyze(t, `
class acc {
public:
  double v;
  void scale(double s);
  void bump(double d);
};
class driver {
public:
  acc *x;
  int dummy;
  void mulOnly();
  void mixed();
};
void acc::scale(double s) { v = v * s; }
void acc::bump(double d) { v = v + d; }
void driver::mulOnly() {
  x->scale(2.0);
  x->scale(3.0);
}
void driver::mixed() {
  x->scale(2.0);
  x->bump(1.0);
}
`)
	r := a.IsParallel(a.Prog.MethodByFullName("driver::mulOnly"))
	if !r.Parallel {
		t.Errorf("mulOnly should be parallel; reason: %s", r.Reason)
	}
	r = a.IsParallel(a.Prog.MethodByFullName("driver::mixed"))
	if r.Parallel {
		t.Error("mixed scale/bump must not be parallel")
	}
}

// TestIOPreventsParallelization per Figure 3's mayPerformIO check.
func TestIOPreventsParallelization(t *testing.T) {
	_, a := analyze(t, `
class cnt {
public:
  int n;
  void add(int k);
};
class driver {
public:
  cnt *c;
  int dummy;
  void run();
};
void cnt::add(int k) { n = n + k; print("added"); }
void driver::run() { c->add(1); c->add(2); }
`)
	r := a.IsParallel(a.Prog.MethodByFullName("driver::run"))
	if r.Parallel {
		t.Fatal("I/O in the extent must prevent parallelization")
	}
}

// TestExtentReturnValueUsed: extent operations run asynchronously, so a
// caller that consumes the value of one is not parallel, and says where.
func TestExtentReturnValueUsed(t *testing.T) {
	_, a := analyze(t, `
class counter {
public:
  int n;
  int add(int k);
};
class driver {
public:
  counter *c;
  int last;
  void drop();
  void keep();
};
int counter::add(int k) { n = n + k; return k; }
void driver::drop() { c->add(1); c->add(2); }
void driver::keep() { c->add(1); last = c->add(2); }
`)
	if r := a.IsParallel(a.Prog.MethodByFullName("driver::drop")); !r.Parallel {
		t.Errorf("drop discards every result and should be parallel; reason: %s", r.Reason)
	}
	r := a.IsParallel(a.Prog.MethodByFullName("driver::keep"))
	if r.Parallel || !strings.Contains(r.Reason, "the return value of extent operation counter::add is used") {
		t.Errorf("keep: parallel=%t reason=%q", r.Parallel, r.Reason)
	}
}
