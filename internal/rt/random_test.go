package rt_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/rt"
)

// loopBodyShape is one body the generators give the update loop of
// driver::runAll, whose locals are int u (the loop variable), k, n and t.
// The invocations commute under every shape; legal says whether the
// iterations may also run out of order on private copies of the frame,
// i.e. whether the plan runs the loop in parallel or leaves it serial.
type loopBodyShape struct {
	name, pre, bound, body string
	legal                  bool
}

var loopBodyShapes = []loopBodyShape{
	{"plain", "", "NU", "this->apply(u);", true},
	{"private temp", "", "NU", "t = u; this->apply(t);", true},
	{"carried counter", "k = 0;", "NU", "this->apply(k); k = k + 1;", false},
	{"loop-variable write", "", "NU", "this->apply(u); u = u + 1;", false},
	{"bound write", "n = NU;", "n", "this->apply(u); n = n - 1;", false},
}

// updateShape is how driver::apply gets an update to its counter.
type updateShape int

const (
	// apply invokes counter::bump on the counter.
	updateDirect updateShape = iota
	// bump first asks driver::scan for a number: an auxiliary call of a
	// read-only helper whose body is a planned-parallel loop of probe::peek
	// operations. An auxiliary operation executes serially: bump keeps its
	// lock from the call to its writes.
	updateHelper
	// apply invokes relay::send, whose one invocation is on its nested
	// port — and port::push goes on to the counter, which many relays
	// share: send may not hold its lock through (§5.4.2), push is spawned
	// and bump locks.
	updateNested
	updateShapes
)

// genCommutingProgram generates a random program whose parallel work
// consists only of commuting additive/multiplicative updates on a pool
// of counter objects, reached in a random one of three ways and driven
// by a loop of a random shape and step, in one draw of two followed by a
// second pass whose result main uses. Serial and parallel executions
// must agree exactly (integer state).
func genCommutingProgram(r *rand.Rand, counters, updates int) string {
	return genLoopProgram(r, counters, updates, loopBodyShapes[r.Intn(len(loopBodyShapes))], 1+r.Intn(3), r.Intn(2) == 0, updateShape(r.Intn(int(updateShapes))))
}

// genLoopProgram is genCommutingProgram with the loop chosen: its shape,
// and its step. After the loop the loop variable is added to a tally
// object of its own, so the value a handled loop leaves there — a step
// of 2 or 3 oversteps the bound — shows in the state (counterState reads
// it last) without touching anything the updates touch.
//
// valued adds driver::again, which applies every update once more and
// returns a number main notes in the tally and prints: runAll's extent
// with a root that returns a value, so not a region root — entered as
// one (the callers clear the work estimates: every region opens) the
// value was dropped.
//
// update says how an update reaches its counter. The work estimates of
// the two indirect shapes are unbounded (scan loops to a field, and the
// callers clear them anyway), so their regions open on both runtimes.
func genLoopProgram(r *rand.Rand, counters, updates int, shape loopBodyShape, step int, valued bool, update updateShape) string {
	// The pieces an update shape adds: classes ahead of the driver's,
	// driver members, statements of setup's counter loop and after its
	// tables, the body of apply, and what bump does around its writes.
	var classes, members, perCounter, perUpdate, bumpAsk, bumpUse string
	applyBody := "counter *c;\n  c = cs[targets[u]];\n  c->bump(amounts[u]);"
	switch update {
	case updateHelper:
		classes = `
class probe {
public:
  int w;
  void peek();
};

void probe::peek() {
  int t;
  t = w + 1;
}
`
		members = "\n  probe *ps[NC];\n  int np;\n  int scan();"
		perCounter = "\n    ps[i] = new probe;"
		perUpdate = "  np = NC;\n"
		bumpAsk, bumpUse = "  int f;\n  f = D.scan();\n", " + f"
	case updateNested:
		classes = `
class port {
public:
  counter *to;
  void aim(counter *c);
  void push(int k);
};

void port::aim(counter *c) {
  to = c;
}

void port::push(int k) {
  to->bump(k);
}

class relay {
public:
  port out;
  int sent;
  void aim(counter *c);
  void send(int k);
};

void relay::aim(counter *c) {
  out.aim(c);
}

void relay::send(int k) {
  sent = sent + 1;
  out.push(k);
}
`
		members = "\n  relay *rs[NU];"
		perUpdate = "  for (i = 0; i < NU; i++) {\n    rs[i] = new relay;\n    rs[i]->aim(cs[targets[i]]);\n  }\n"
		applyBody = "relay *q;\n  q = rs[u];\n  q->send(amounts[u]);"
	}
	var again, againDecl, useAgain string
	if valued {
		againDecl = "\n  int again();"
		again = `
int driver::again() {
  int u;
  for (u = 0; u < NU; u += 1) {
    this->apply(u);
  }
  return NU + 7;
}
`
		useAgain = "\n  x = D.again();\n  D.tl->note(x);\n  print(x);"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `
const int NC = %d;
const int NU = %d;

class counter {
public:
  int adds;
  int prods;
  void bump(int k);
};

void counter::bump(int k) {
%s  adds = adds + k;
  prods = prods * 2 + 0 * k%s;
}
%s
class tally {
public:
  int seen;
  void note(int v);
};

void tally::note(int v) {
  seen = seen + v;
}

class driver {
public:
  counter *cs[NC];
  tally *tl;
  int targets[NU];
  int amounts[NU];
  void setup();
  void apply(int u);
  void runAll();%s%s
};

driver D;

void driver::setup() {
  int i;
  tl = new tally;
  for (i = 0; i < NC; i++) {
    cs[i] = new counter;
    cs[i]->adds = 0;
    cs[i]->prods = 1;%s
  }
`, counters, updates, bumpAsk, bumpUse, classes, againDecl, members, perCounter)
	for u := 0; u < updates; u++ {
		fmt.Fprintf(&sb, "  targets[%d] = %d;\n  amounts[%d] = %d;\n",
			u, r.Intn(counters), u, 1+r.Intn(9))
	}
	sb.WriteString(perUpdate)
	if update == updateHelper {
		sb.WriteString(`}

int driver::scan() {
  int i;
  for (i = 0; i < np; i += 1) {
    ps[i]->peek();
  }
  return 0;
`)
	}
	fmt.Fprintf(&sb, `}

void driver::apply(int u) {
  %s
}

void driver::runAll() {
  int u;
  int k;
  int n;
  int t;
  %s
  for (u = 0; u < %s; u += %d) {
    %s
  }
  tl->note(u);
}
%s
void main() {
  int x;
  D.setup();
  D.runAll();%s
}
`, applyBody, shape.pre, shape.bound, step, shape.body, again, useAgain)
	return sb.String()
}

// TestRandomCommutingPrograms: the analysis marks driver::runAll
// parallel, the plan runs the generated update loop in parallel exactly
// when its shape is legal, and parallel execution reproduces the serial
// integer state exactly at several worker counts.
func TestRandomCommutingPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		counters := 2 + r.Intn(6)
		updates := 8 + r.Intn(40)
		// Every shape at steps 1, 2 and 3, twice: the second time with a
		// value-returning pass after it. Every loop shape meets every
		// update shape, once each time.
		shape, step := loopBodyShapes[trial%len(loopBodyShapes)], 1+trial/len(loopBodyShapes)%3
		update := updateShape(trial % int(updateShapes))
		source := genLoopProgram(r, counters, updates, shape, step, trial >= 15, update)

		prog, plan := build(t, source)
		runAll := prog.MethodByFullName("driver::runAll")
		if !plan.RegionRoot(runAll) {
			t.Fatalf("trial %d (%s): driver::runAll is no region root", trial, shape.name)
		}
		if again := prog.MethodByFullName("driver::again"); again != nil && (plan.RegionRoot(again) || !plan.GeneratesConcurrency(again)) {
			t.Fatalf("trial %d (%s): driver::again is a region root, or no reason to be one but its result", trial, shape.name)
		}
		var parallelLoop bool
		for _, lp := range plan.Loops {
			if lp.Method == runAll && lp.Parallel {
				parallelLoop = true
			}
		}
		if parallelLoop != shape.legal {
			t.Fatalf("trial %d (%s): update loop parallel = %t, want %t", trial, shape.name, parallelLoop, shape.legal)
		}
		if send := prog.MethodByFullName("relay::send"); send != nil && (plan.Methods[send].HoldsLockThrough || plan.Methods[send].NoHoist == "") {
			t.Fatalf("trial %d: relay::send holds its lock through port::push, which leaves for a shared counter", trial)
		}

		// Differential property across execution engines: the closure
		// compiler must be observationally identical to the tree walker.
		// The walk engine's serial state is the reference for everything.
		ipSerial := interp.NewEngine(prog, nil, interp.EngineWalk)
		if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
			t.Fatalf("trial %d serial walk: %v", trial, err)
		}
		want := counterState(t, prog, ipSerial, counters)

		ipComp := interp.NewEngine(prog, nil, interp.EngineCompiled)
		if err := ipComp.Run(ipComp.NewCtx()); err != nil {
			t.Fatalf("trial %d serial compiled: %v", trial, err)
		}
		if got := counterState(t, prog, ipComp, counters); !slices.Equal(got, want) {
			t.Fatalf("trial %d: serial compiled state %v, want %v", trial, got, want)
		}

		// The schedule may only change the order of commuting updates,
		// never the result.
		for _, workers := range []int{1, 4} {
			ip := interp.New(prog, nil)
			r := rt.New(ip, plan, workers)
			if err := r.Run(); err != nil {
				t.Fatalf("trial %d (%s) workers %d parallel: %v", trial, shape.name, workers, err)
			}
			got := counterState(t, prog, ip, counters)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%s, step %d) workers %d: counter %d = %v, want %v (commuting updates must agree)",
						trial, shape.name, step, workers, i, got[i], want[i])
				}
			}
			// The update loop and no other: the loop inside the helper
			// shape's auxiliary scan runs as the serial code it is.
			if (r.Stats.ParallelLoops > 0) != shape.legal {
				t.Fatalf("trial %d (%s) workers %d: %d parallel loops run", trial, shape.name, workers, r.Stats.ParallelLoops)
			}
		}
	}
}

// genRejectedProgram is genCommutingProgram with one non-commuting
// overwrite (`last = k`) added to the update, so the analysis rejects
// the update loop at the symbolic pair stage (fractional confidence,
// speculation-eligible) while the additive state still commutes.
// Whether a speculative run commits (updates landed in disjoint
// per-worker journals) or aborts and re-runs serially depends on the
// random target pattern and the chunking — both paths must reproduce
// the serial state exactly.
func genRejectedProgram(r *rand.Rand, counters, updates int) string {
	src := genCommutingProgram(r, counters, updates)
	src = strings.Replace(src, "int prods;", "int prods;\n  int last;", 1)
	src = strings.Replace(src, "adds = adds + k;", "adds = adds + k;\n  last = k;", 1)
	return src
}

// genViolatingProgram generates a program guaranteed to violate under
// speculation at every worker count: the rejected method's call sites
// are spawned tasks (each with its own journal), and every task
// overwrites the same counter's field, so validation always finds a
// cross-task write-write conflict. The serial rerun after the abort
// must reproduce the serial state bit-exactly.
func genViolatingProgram(r *rand.Rand, marks int) string {
	var sb strings.Builder
	sb.WriteString(`
class counter {
public:
  int last;
  int total;
  void mark(int k);
};

void counter::mark(int k) {
  last = k;
  total = total + k;
}

class driver {
public:
  counter *c;
  void setup();
  void run();
};

driver D;

void driver::setup() {
  c = new counter;
}

void driver::run() {
`)
	for i := 0; i < marks; i++ {
		fmt.Fprintf(&sb, "  c->mark(%d);\n", 1+r.Intn(99))
	}
	sb.WriteString(`}

void main() {
  D.setup();
  D.run();
}
`)
	return sb.String()
}

// TestRandomSpeculativePrograms promotes the differential property to
// speculative execution: the serial walker and speculative runs at
// several worker counts must agree bit-exactly on the program state —
// whether the speculation commits, or aborts and re-runs serially.
func TestRandomSpeculativePrograms(t *testing.T) {
	r := rand.New(rand.NewSource(5678))

	// Rejected-but-often-disjoint update loops (GSS speculation).
	for trial := 0; trial < 6; trial++ {
		counters := 2 + r.Intn(6)
		updates := 8 + r.Intn(40)
		source := genRejectedProgram(r, counters, updates)
		prog, plan := buildSpec(t, source)

		runAll := prog.MethodByFullName("driver::runAll")
		if mp := plan.Methods[runAll]; !mp.Speculative {
			t.Fatalf("trial %d: rejected update loop not planned speculative", trial)
		}

		// Read the overwritten field too: `last` is the non-commuting
		// state, so it is exactly where a botched commit would show.
		fullState := func(ip *interp.Interp) []int64 {
			st := counterState(t, prog, ip, counters)
			d := ip.Globals["D"]
			cs := d.Slots[ip.FieldSlot(prog.Classes["driver"], "driver", "cs")].Array()
			for i := 0; i < counters; i++ {
				c := cs.Elems[i].Object()
				st = append(st, c.Slots[ip.FieldSlot(prog.Classes["counter"], "counter", "last")].Int())
			}
			return st
		}

		ipSerial := interp.NewEngine(prog, nil, interp.EngineWalk)
		if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		want := fullState(ipSerial)

		for _, workers := range []int{1, 4} {
			ip := interp.New(prog, nil)
			rr := rt.New(ip, plan, workers)
			rr.Speculate = rt.SpecForce
			if err := rr.Run(); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if got := fullState(ip); !slices.Equal(got, want) {
				t.Fatalf("trial %d workers %d: state %v, want serial %v", trial, workers, got, want)
			}
			if rr.Stats.SpeculativeRegions == 0 {
				t.Fatalf("trial %d workers %d: nothing speculated", trial, workers)
			}
			if rr.Stats.SpeculationCommits+rr.Stats.SpeculationAborts != rr.Stats.SpeculativeRegions {
				t.Fatalf("trial %d workers %d: stats %+v don't balance", trial, workers, rr.Stats)
			}
		}
	}

	// Guaranteed violators: every speculative run must abort and the
	// serial rerun must win.
	for trial := 0; trial < 6; trial++ {
		marks := 2 + r.Intn(5)
		source := genViolatingProgram(r, marks)
		prog, plan := buildSpec(t, source)

		ipSerial := interp.NewEngine(prog, nil, interp.EngineWalk)
		if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
			t.Fatalf("violator %d serial: %v", trial, err)
		}
		want := markState(t, prog, ipSerial)

		for _, workers := range []int{1, 4} {
			ip := interp.New(prog, nil)
			rr := rt.New(ip, plan, workers)
			rr.Speculate = rt.SpecForce
			if err := rr.Run(); err != nil {
				t.Fatalf("violator %d workers %d: %v", trial, workers, err)
			}
			if got := markState(t, prog, ip); got != want {
				t.Fatalf("violator %d workers %d: state %v, want serial %v", trial, workers, got, want)
			}
			if rr.Stats.SpeculationAborts == 0 {
				t.Fatalf("violator %d workers %d: guaranteed conflict did not abort (%+v)",
					trial, workers, rr.Stats)
			}
			if rr.Stats.SpeculationCommits != 0 {
				t.Fatalf("violator %d workers %d: conflicting region committed (%+v)",
					trial, workers, rr.Stats)
			}
		}
	}
}

// markState reads (last, total) of the violating program's counter.
func markState(t *testing.T, prog *types.Program, ip *interp.Interp) [2]int64 {
	t.Helper()
	d := ip.Globals["D"]
	driverCl := prog.Classes["driver"]
	counterCl := prog.Classes["counter"]
	c := d.Slots[ip.FieldSlot(driverCl, "driver", "c")].Object()
	return [2]int64{
		c.Slots[ip.FieldSlot(counterCl, "counter", "last")].Int(),
		c.Slots[ip.FieldSlot(counterCl, "counter", "total")].Int(),
	}
}

// counterState reads (adds, prods) for every counter, then the tally.
func counterState(t *testing.T, prog *types.Program, ip *interp.Interp, counters int) []int64 {
	t.Helper()
	d := ip.Globals["D"]
	driverCl := prog.Classes["driver"]
	counterCl := prog.Classes["counter"]
	cs := d.Slots[ip.FieldSlot(driverCl, "driver", "cs")].Array()
	var out []int64
	for i := 0; i < counters; i++ {
		c := cs.Elems[i].Object()
		out = append(out,
			c.Slots[ip.FieldSlot(counterCl, "counter", "adds")].Int(),
			c.Slots[ip.FieldSlot(counterCl, "counter", "prods")].Int(),
		)
	}
	tl := d.Slots[ip.FieldSlot(driverCl, "driver", "tl")].Object()
	return append(out, tl.Slots[ip.FieldSlot(prog.Classes["tally"], "tally", "seen")].Int())
}
