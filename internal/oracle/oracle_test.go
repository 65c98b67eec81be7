package oracle_test

import (
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/nativegen"
	"commute/internal/oracle"
	"commute/internal/rt"
)

// TestSerialEquivalence runs every row through oracle.Check: the shipped
// applications and demonstrators, the loop, entry and dispatch fixtures,
// and draws of every generator family, each with the counters that say
// why its runs agree with the serial walker.
func TestSerialEquivalence(t *testing.T) {
	for _, row := range rows() {
		t.Run(row.Name, func(t *testing.T) { oracle.Check(t, row) })
	}
}

// FuzzSerialEquivalence holds programs of every generator family to the
// serial walker on the interpreter runtime.
func FuzzSerialEquivalence(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		oracle.Check(t, oracle.Row{Name: "draw", Source: oracle.Draw(rand.New(rand.NewSource(seed)))})
	})
}

// interpreter is what is wrong with an interpreter run whose counters are
// not ok; the binary does not count them.
func interpreter(r oracle.Run, ok bool, what string) string {
	if r.Native || ok {
		return ""
	}
	return what
}

func rows() []oracle.Row {
	apps := []int{7, 8, 16}
	rows := []oracle.Row{
		{Name: "graph", Source: src.Graph, Native: true, Workers: apps, Expect: func(r oracle.Run) string {
			return interpreter(r, r.Stats.Regions > 0 && (r.Workers == 1 || r.Stats.Tasks > 0), "no region, or no task at several workers")
		}},
		{Name: "barneshut", Source: src.BarnesHut, Native: true, Race: []int{4}, Workers: apps, Expect: func(r oracle.Run) string {
			s := r.Stats
			return interpreter(r, s.ParallelLoops > 0 && s.Chunks > 0 && s.Iterations > 0 && s.LockAcquires > 0, "no parallel loop, chunk, iteration or lock")
		}},
		// Water accumulates doubles on per-worker replicas folded in an
		// order that varies.
		{Name: "water", Source: src.Water, Tol: 1e-9, Native: true, Workers: apps, Expect: func(r oracle.Run) string {
			return interpreter(r, r.Stats.ParallelLoops > 0 && r.Stats.LockAcquires > 0, "no parallel loop or lock")
		}},
		// A global accumulator a parallel loop adds into, of ints and of
		// doubles: every addition runs on the worker's replica, so nothing
		// locks, and each region's join folds the replicas back before main
		// reads the total. A fold skipped or done twice shows in the ints.
		{Name: "replica-int", Source: replicated("int", "3 * w + 1", "w * w - 3 * w"), Native: true, Race: []int{4}, Expect: unlocked},
		{Name: "replica-float", Source: replicated("double", "0.37 * w + 0.001", "0.5 * w"), Tol: 1e-9, Native: true, Expect: unlocked},
		// Three counters behind 96 slots, each iteration running a chain of
		// operations on its slot's counter: the coarse mutex version takes
		// the counter's lock once for the chain, and two iterations on one
		// counter serialize whole chains. bump holds its read of total in a
		// local across 8 192 additions, so a chain run without the lock
		// loses updates in the plain binary at 2 and 4 workers, not only
		// when the race detector sees two workers on one counter.
		{Name: "coarse-alias", Source: coarseAlias, Native: true, Race: []int{4}, Expect: func(r oracle.Run) string {
			return interpreter(r, r.Stats.ParallelLoops > 0 && r.Stats.LockAcquires == 2*96, "no parallel loop, or not one lock a chain")
		}},
		// A local array passed by reference to two spawned calls an
		// iteration, then rewritten by the caller: each task reads the
		// array as of its call, not as the next iteration left it.
		{Name: "ref-spawn", Source: refSpawn, Native: true, Race: []int{4}, Expect: func(r oracle.Run) string {
			return interpreter(r, r.Stats.Regions == 1 && r.Stats.Tasks == 2*2000, "want 1 region and 4000 tasks")
		}},
		// The same under speculation: the spawner's writes to the array
		// are buffered in its journal, so its snapshot reads through it,
		// and the region commits.
		{Name: "ref-spawn-spec", Source: refSpawnSpec, Native: true, Race: []int{4}, Expect: func(r oracle.Run) string {
			if r.Speculate == rt.SpecForce && r.Stats.SpeculationCommits != 1 {
				return "want one committed speculative region"
			}
			return ""
		}},
		// A parameter of a class with subclasses, NULL on a third of the
		// calls and read only behind a NULL test: its binding stays nil.
		{Name: "poly-nil", Source: polyNil, Native: true, Expect: func(r oracle.Run) string {
			return interpreter(r, r.Stats.ParallelLoops > 0, "no parallel loop")
		}},

		// The demonstrators, main entering one root again and again. The
		// guard holds in condhash's mode 0 only; speculation commits on
		// spec-disjoint and aborts on spec-conflict.
		entries("condhash0", src.CondHashBase+src.CondHashMain(0, 512), 512, guardHolds),
		entries("condhash3", src.CondHashBase+src.CondHashMain(3, 24), 24, func(r oracle.Run) (tier rt.Stats) {
			if r.Conditional {
				tier.GuardSerial = 1
			}
			if r.Speculate == rt.SpecForce || !r.Conditional && r.Speculate == rt.SpecAuto {
				tier.Regions, tier.SpeculativeRegions = 1, 1
			}
			return tier
		}),
		// condhash0 with a global accumulator below the update: a guarded
		// region adds on the workers' replicas, a speculative one runs the
		// same call as its journaled mutex version (and aborts).
		entries("condhash0-replica", replicaCondHash+src.CondHashMain(0, 64), 64, guardHolds),
		// A speculative root reaching a replicated site: its tasks journal
		// the accumulation, which commits or aborts with the region (on a
		// replica it would escape the journal and the join's fold).
		{Name: "spec-replica", Source: specReplica, Native: true, Expect: func(r oracle.Run) string {
			if r.Speculate == rt.SpecForce && r.Stats.SpeculativeRegions == 0 {
				return "nothing speculated"
			}
			return ""
		}},
		entries("specdisjoint", oracle.Repeat(src.SpecDisjoint, "T.init();", "T.fill();", 256, "T.report();"), 256, speculative(rt.Stats{SpeculationCommits: 1})),
		entries("specconflict", oracle.Repeat(src.SpecConflict, "D.init();", "D.run();", 256, "D.show();"), 256, speculative(rt.Stats{SpeculationAborts: 1})),
		// specconflict accumulating through a this field, o->f and a[i]:
		// a write that leaks past a task's journal at any of the three
		// reaches the heap before the abort, and the serial rerun adds it
		// again.
		entries("specleak", oracle.Repeat(specLeak, "D.init();", "D.run();", 64, "D.show();"), 64, speculative(rt.Stats{SpeculationAborts: 1})),
		// specdisjoint reading its own writes through o->f and a[i]: every
		// region commits, so a load that reads the heap past a task's
		// buffered write commits a wrong value.
		entries("specreadown", oracle.Repeat(specReadOwn, "T.init();", "T.fill(r);", 64, "T.report();"), 64, speculative(rt.Stats{SpeculationCommits: 1})),
		// Roots the cutoff declines on the plan as built: a speculative
		// extent below two mutually recursive serial drivers, which need a
		// D_ version of both halves of the cycle natively, and a root called
		// from inside another, part of the outer's serial version there.
		// Operations on constants only, which Go would evaluate exactly
		// (0.3, not 0.30000000000000004), could not spell (-0, +Inf, NaN)
		// or would reject (an int64 overflow, a double constant truncated
		// into an int): the emitter folds each as the interpreter computes
		// it and writes the value's bits.
		{Name: "constfold", Source: constFold, Native: true},
		{Name: "pingpong", Source: src.SpecDisjoint[:strings.Index(src.SpecDisjoint, "void main()")] + pingPong, Native: true, Expect: declinesAsBuilt},
		{Name: "nested", Source: nestedRoots, Native: true, Expect: declinesAsBuilt},
	}

	// A method that returns a value is no region root, however parallel
	// its body, small or above both entry costs: a call from serial code is
	// its serial version, result included, and counts nothing.
	for _, fx := range append([]src.EntryFixture{{Name: "valueroot", Source: valueRoot, Root: "driver::step"}}, src.EntryFixtures()...) {
		rows = append(rows, oracle.Row{Name: fx.Name, Source: fx.Source, Native: true, Expect: func(r oracle.Run) string {
			root := r.Sys.Prog.MethodByFullName(fx.Root)
			if r.Sys.Plan.RegionRoot(root) || !r.Sys.Plan.Methods[root].Parallel {
				return fx.Root + " is a region root, or has no parallel version"
			}
			if r.Stats != (rt.Stats{}) {
				return "counted an entry"
			}
			return ""
		}})
	}
	// The legality fixtures open one region that runs a parallel loop
	// exactly where the plan has one, and the binary's text lowers to GSS
	// exactly those. carried's wrong answers depended on when helpers joined.
	for _, fx := range src.LoopFixtures() {
		row := oracle.Row{Name: fx.Name, Source: fx.Source, Native: true, Expect: func(r oracle.Run) string {
			if r.Native && r.GSS != (fx.Parallel > 0) {
				return fmt.Sprintf("GSS loop in the binary: %t, parallel loops in the plan: %d", r.GSS, fx.Parallel)
			}
			return interpreter(r, r.Stats.Regions == 1 && r.Stats.ParallelLoops == int64(fx.Parallel), fmt.Sprintf("want 1 region and %d parallel loops", fx.Parallel))
		}}
		if fx.Name == "carried" {
			row.Repeat = 20
		}
		rows = append(rows, row)
	}
	// The dispatch fixtures open one region and run no loop in it, whatever
	// the timing: an auxiliary call runs the serial version (aux-loop's
	// counter::add keeps its lock from the probe to the write), and
	// hoist-escape's outer::go may not hold its lock through (inner::poke is
	// spawned and acc::add locks: two acquisitions a node). They run at the
	// shipped size, where the old wrong answers showed in only some runs;
	// under the race detector, which needs no luck, on trees of depth 8.
	for _, fx := range src.DispatchFixtures() {
		// Tree nodes, and lock acquisitions a node.
		size := map[string][2]int64{"aux-loop": {65535, 1}, "hoist-escape": {16383, 2}, "nested-spawn": {65535, 3}}[fx.Name]
		if raceEnabled {
			fx.Source, size[0] = fx.AtDepth(8), 511
		}
		locks := size[0] * size[1]
		rows = append(rows, oracle.Row{Name: fx.Name, Source: fx.Source, Native: true, Race: []int{4}, Expect: func(r oracle.Run) string {
			s := r.Stats
			return interpreter(r, s.Regions == 1 && s.ParallelLoops == 0 && s.LockAcquires == locks, fmt.Sprintf("want 1 region, no loop and %d locks", locks))
		}})
	}
	return append(rows, draws()...)
}

// draws are rows of the generator. Counters: every loop shape at every
// step under every reach but Ref, the second half with a valued pass, the
// update loop parallel exactly where its shape is legal and its root
// opened; then updates that overwrite (speculation, which commits or
// aborts) and that depend on a mode (the guard holds in mode 0 only), the
// violators (every speculative region aborts), the analysis families,
// and last every loop shape under the reach Ref.
func draws() []oracle.Row {
	r := rand.New(rand.NewSource(1234))
	var rows []oracle.Row
	counters := func(name string, c oracle.Counters, native bool, expect func(oracle.Run, rt.Stats) string) {
		rows = append(rows, oracle.Row{Name: name, Source: c.Source(r), Native: native, Expect: func(run oracle.Run) string {
			mp := run.Sys.Plan.Methods[run.Sys.Prog.MethodByFullName("driver::runAll")]
			switch c.Op {
			case oracle.Overwrite:
				if !mp.Speculative {
					return "driver::runAll is not planned speculative"
				}
			case oracle.ModeGuarded:
				if !mp.Conditional {
					return "driver::runAll is not planned conditional"
				}
			}
			if run.Stats.RegionsDeclined != 0 {
				return ""
			}
			return expect(run, run.Stats)
		}})
	}
	for i := 0; i < 30; i++ {
		c := oracle.DrawCounters(r)
		c.Loop, c.Step, c.Reach, c.Valued = oracle.LoopShapes[i%len(oracle.LoopShapes)], 1+i/5%3, oracle.Reach(i%int(oracle.Ref)), i >= 15
		counters(fmt.Sprintf("commuting-%d", i), c, false, func(run oracle.Run, s rt.Stats) string {
			return interpreter(run, (s.ParallelLoops > 0) == c.Loop.Legal, fmt.Sprintf("loop shape %q: %d parallel loops", c.Loop.Name, s.ParallelLoops))
		})
	}
	speculates := func(run oracle.Run, s rt.Stats) string {
		if run.Speculate == rt.SpecForce && s.SpeculativeRegions == 0 {
			return "nothing speculated"
		}
		return ""
	}
	for i := 0; i < 8; i++ {
		c := oracle.DrawCounters(r)
		c.Op = oracle.Overwrite
		counters(fmt.Sprintf("rejected-%d", i), c, i < 2, speculates)
		// rejected-0 has a root that costs more than the interpreter's entry
		// cost and less than the emitter's.
		rows[len(rows)-1].NoParity = i == 0
	}
	for i := 0; i < 6; i++ {
		c := oracle.DrawCounters(r)
		c.Op, c.Mode = oracle.ModeGuarded, i%2
		counters(fmt.Sprintf("conditional-%d", i), c, i < 2, func(run oracle.Run, s rt.Stats) string {
			if !run.Conditional || run.Speculate != rt.SpecOff {
				return ""
			}
			if c.Mode == 0 && (s.GuardParallel == 0 || s.GuardSerial != 0) || c.Mode != 0 && (s.GuardSerial == 0 || s.GuardParallel != 0 || s.Regions != 0) {
				return fmt.Sprintf("wrong guard outcome in mode %d", c.Mode)
			}
			return ""
		})
	}
	for i := 0; i < 7; i++ {
		rows = append(rows, oracle.Row{Name: fmt.Sprintf("violating-%d", i), Source: oracle.Violating(r), Native: i == 0, Expect: func(run oracle.Run) string {
			s := run.Stats
			if s.RegionsDeclined == 0 && run.Speculate == rt.SpecForce && (s.SpeculationAborts == 0 || s.SpeculationCommits != 0) {
				return "a guaranteed conflict committed, or did not abort"
			}
			return ""
		}})
	}
	for i := 0; i < 4; i++ {
		rows = append(rows,
			oracle.Row{Name: fmt.Sprintf("analysis-%d", i), Source: oracle.Analysis(r)},
			oracle.Row{Name: fmt.Sprintf("mixed-%d", i), Source: oracle.Mixed(r)},
			oracle.Row{Name: fmt.Sprintf("work-%d", i), Source: oracle.Work(r, oracle.Op(i))})
	}
	// The reach Ref under every loop shape, drawn last so that the rows
	// above keep their programs.
	for i, shape := range oracle.LoopShapes {
		c := oracle.DrawCounters(r)
		c.Loop, c.Reach, c.Valued = shape, oracle.Ref, i%2 == 1
		counters(fmt.Sprintf("ref-%d", i), c, false, func(run oracle.Run, s rt.Stats) string {
			return interpreter(run, (s.ParallelLoops > 0) == c.Loop.Legal, fmt.Sprintf("loop shape %q: %d parallel loops", c.Loop.Name, s.ParallelLoops))
		})
	}
	return rows
}

// entries is a row whose main enters one region root n times: on the plan
// as built each entry is declined and nothing else counts; cleared, each
// entry counts what tier says (Regions on the interpreter only), and
// where tier names a speculative region but neither outcome, commits and
// aborts need only add up.
func entries(name, source string, n int64, tier func(oracle.Run) rt.Stats) oracle.Row {
	return oracle.Row{Name: name, Source: source, Native: true, Race: []int{1, 4}, Expect: func(r oracle.Run) string {
		want, got := rt.Stats{RegionsDeclined: n}, r.Stats
		if r.Cleared {
			want = tier(r)
			for _, c := range []*int64{&want.Regions, &want.SpeculativeRegions, &want.SpeculationCommits, &want.SpeculationAborts, &want.GuardParallel, &want.GuardSerial} {
				*c *= n
			}
			if want.SpeculationCommits+want.SpeculationAborts == 0 {
				want.SpeculationCommits, want.SpeculationAborts = got.SpeculationCommits, got.SpeculationAborts
			}
			got = oracle.Policy(r.Stats)
			got.Regions = r.Stats.Regions
		}
		if r.Native {
			want.Regions = 0
		}
		if got != want {
			return "want " + oracle.Counts(want)
		}
		return ""
	}}
}

// guardHolds is what one entry of condhash in mode 0 counts: the guard
// holds, so the region opens guarded, or speculates when only speculation
// may open it.
func guardHolds(r oracle.Run) (tier rt.Stats) {
	switch {
	case r.Conditional:
		tier = rt.Stats{Regions: 1, GuardParallel: 1}
	case r.Speculate != rt.SpecOff:
		tier = rt.Stats{Regions: 1, SpeculativeRegions: 1}
	}
	return tier
}

// speculative is what one entry of a speculative root counts under a
// policy that speculates: one speculative region, ending in outcome.
func speculative(outcome rt.Stats) func(oracle.Run) rt.Stats {
	return func(r oracle.Run) (tier rt.Stats) {
		if r.Speculate != rt.SpecOff {
			tier = outcome
			tier.Regions, tier.SpeculativeRegions = 1, 1
		}
		return tier
	}
}

// replicaCondHash is condhash with a global accumulator, Tot, that every
// bucket update adds its value into.
var replicaCondHash = strings.NewReplacer(
	"// Global Variables\ntable H;", "class acc {\npublic:\n  int total;\n  void add(int v);\n};\n\nvoid acc::add(int v) {\n  total += v;\n}\n\n// Global Variables\ntable H;\nacc Tot;",
	"  touched = touched + 1;\n}", "  touched = touched + 1;\n  Tot.add(v);\n}",
).Replace(src.CondHashBase)

// unlocked: an interpreter run took no lock, and ran a parallel loop.
func unlocked(r oracle.Run) string {
	return interpreter(r, r.Stats.ParallelLoops > 0 && r.Stats.LockAcquires == 0, "no parallel loop, or a lock")
}

// replicated is a program whose parallel loops add into the global
// accumulator A: into its fields of type typ, a scalar and an array,
// every item adds the two values one and other compute from its w. The
// loop bound is a field, so the region opens on the plan as built.
func replicated(typ, one, other string) string {
	return fmt.Sprintf(`
class acc {
public:
  %[1]s total;
  %[1]s bins[8];
  void add(%[1]s v, int b);
};

class item {
public:
  int w;
  void visit();
};

class driver {
public:
  item *items[96];
  int n;
  %[1]s first;
  void build(int k);
  void run();
};

acc A;
driver D;

void acc::add(%[1]s v, int b) {
  total += v;
  bins[b] = bins[b] + v;
}

void item::visit() {
  A.add(%[2]s, w %% 8);
  A.add(%[3]s, 3);
}

void driver::build(int k) {
  n = k;
  for (int i = 0; i < k; i++) {
    items[i] = new item;
    items[i]->w = i * 7 %% 23 + 1;
  }
}

void driver::run() {
  for (int i = 0; i < n; i++) {
    items[i]->visit();
  }
}

void main() {
  D.build(96);
  D.run();
  D.first = A.total;
  D.run();
}
`, typ, one, other)
}

// coarseAlias: slot i holds counter i % 3, and cnt::add bumps, then
// notes, its receiver — the chain coarsen holds one lock through. bump
// reads total into a local, runs a bounded loop that leaves it as it
// was, and writes it back: the window of Veracity's busy_wait.
const coarseAlias = `
class cnt {
public:
  int total;
  int hits;
  int sq;
  void add(int v);
  void bump(int v);
  void note(int v);
};

class driver {
public:
  cnt *objs[3];
  cnt *slots[96];
  int n;
  void build(int k);
  void run();
};

driver D;

void cnt::bump(int v) {
  int t = total;
  for (int i = 0; i < 64; i++) {
    for (int j = 0; j < 64; j++) {
      t = t + j;
    }
    for (int j = 0; j < 64; j++) {
      t = t - j;
    }
  }
  total = t + v;
}

void cnt::note(int v) {
  hits = hits + 1;
  sq = sq + v * v;
}

void cnt::add(int v) {
  this->bump(v);
  note(v);
}

void driver::build(int k) {
  n = k;
  for (int i = 0; i < 3; i++) {
    objs[i] = new cnt;
  }
  for (int i = 0; i < k; i++) {
    slots[i] = objs[i % 3];
  }
}

void driver::run() {
  for (int i = 0; i < n; i++) {
    slots[i]->add(i * 3 + 1);
  }
}

void main() {
  D.build(96);
  D.run();
  D.run();
}
`

// polyNil: a bin takes a shape, a square or NULL, reading its field and
// calling its method only when it is not NULL.
const refSpawn = `
class acc { public: double s; double w;
  void add(double v[2]) { s += v[0]; w += v[0] * v[1]; } };
class drv { public: acc *a; acc *b;
  void run(int n) { double t[2];
    for (int i = 0; i < n; i++) { t[0] = i * 1.0; t[1] = i * 2.0; a->add(t); b->add(t); } } };
drv D;
void main() { D.a = new acc; D.b = new acc; D.run(2000); }
`

const refSpawnSpec = `
class cell { public: int v; int w;
  void put(int a[2]) { v = a[0]; w = w + a[1]; } };
class table { public: cell *cs[64];
  void init() { for (int i = 0; i < 64; i++) cs[i] = new cell; }
  void fill(int n) { int t[2];
    for (int i = 0; i < n; i++) { t[0] = i * 3 + 1; t[1] = i; cs[i]->put(t); t[0] = 0; t[1] = 0; } } };
table T;
void main() { T.init(); T.fill(64); }
`

// specLeak: both marks overwrite last, so every speculative region
// aborts; total, sum and hits accumulate through the three kinds of
// shared-state store.
const specLeak = `
class counter { public: int last; int total; int sum; int hits[4];
  void mark(int v) { last = v; total = total + v; this->sum = this->sum + v; hits[v] = hits[v] + v; } };
class driver { public: counter *c;
  void init() { c = new counter; }
  void run() { c->mark(1); c->mark(2); }
  void show() { print(c->last, c->total, c->sum, c->hits[1], c->hits[2]); } };
driver D;
`

// specReadOwn: set overwrites val, so the extent speculates, and each
// set reads back the field and the element it has just written, which
// differ from what the heap holds: round r writes values of its own.
const specReadOwn = `
class cell { public: int val; int twice; int h[2];
  void set(int v) { this->val = v; this->twice = this->val * 2; h[0] = v; h[1] = h[0] + 1; } };
class table { public: cell *cells[16]; int sum;
  void init() { for (int i = 0; i < 16; i++) cells[i] = new cell; }
  void fill(int r) { for (int i = 0; i < 16; i++) cells[i]->set(r * 100 + i); }
  void report() { for (int i = 0; i < 16; i++) sum = sum + cells[i]->twice + cells[i]->h[1]; print(sum); } };
table T;
`

const polyNil = `
class shape {
public:
  int w;
  int weight(int k);
};

class square : public shape {
public:
  int side;
};

class bin {
public:
  int total;
  int empty;
  void take(shape *s, int k);
};

class driver {
public:
  bin *bins[4];
  shape *slots[64];
  int n;
  void build(int k);
  void run();
};

driver D;

int shape::weight(int k) {
  return w * k + 1;
}

void bin::take(shape *s, int k) {
  if (s != NULL) {
    total = total + s->w + s->weight(k);
  } else {
    empty = empty + 1;
  }
}

void driver::build(int k) {
  square *q;
  n = k;
  for (int i = 0; i < 4; i++) {
    bins[i] = new bin;
  }
  for (int i = 0; i < k; i++) {
    if (i % 3 != 0) {
      q = new square;
      q->w = i * 5 + 1;
      q->side = i;
      slots[i] = q;
    }
  }
}

void driver::run() {
  for (int i = 0; i < n; i++) {
    bins[i % 4]->take(slots[i], i);
  }
}

void main() {
  D.build(64);
  D.run();
}
`

// specReplica's driver::run overwrites last, so its extent only
// speculates, and each item::visit it reaches adds into the global A,
// which visit's own proven extent replicates.
const specReplica = `
class acc {
public:
  int total;
  void add(int v);
};

class item {
public:
  int w;
  void visit();
};

class driver {
public:
  item *items[64];
  int n;
  int last;
  void build(int k);
  void run(int k);
};

acc A;
driver D;

void acc::add(int v) {
  total += v;
}

void item::visit() {
  A.add(w);
}

void driver::build(int k) {
  n = k;
  for (int i = 0; i < k; i++) {
    items[i] = new item;
    items[i]->w = i * 5 + 2;
  }
}

void driver::run(int k) {
  last = k;
  for (int i = 0; i < n; i++) {
    items[i]->visit();
  }
}

void main() {
  D.build(64);
  D.run(5);
  D.run(7);
}
`

const constFold = `
const double TENTH = 0.1;
const double HALF = 0.5;
const int BIG = 9223372036854775807;

class consts {
public:
  double sum;
  double negzero;
  double inf;
  double nan;
  int wrap;
  double mixed;
  int half;
  int named;
  void fill(double x);
};

consts K;

void consts::fill(double x) {
  sum = 0.1 + 0.2;
  negzero = -0.0;
  inf = 1e300 * 1e300;
  nan = 0.0 / 0.0;
  wrap = 9223372036854775807 + 1;
  mixed = x * (TENTH + 0.2) + BIG * 2;
  half = 0.5;
  named = HALF;
}

void main() {
  double d;
  d = 0.1 + 0.2;
  print(d);
  print(0.1 + 0.2, -0.0, 1e300 * 1e300, 9223372036854775807 + 1);
  K.fill(3.0);
  print(K.sum, K.negzero, K.inf, K.nan, K.wrap, K.mixed, K.half, K.named);
}
`

// TestZeroDivisorBuilds: an integer division or remainder by a constant
// zero, which Go rejects, emits a package that builds, vets and fails
// when the division runs, as the interpreter's run does.
func TestZeroDivisorBuilds(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	const source = `
const int ZERO = 0;

class box {
public:
  int q;
  int r;
  void div(int v);
};

box B;

void box::div(int v) {
  r = v % ZERO;
  q = 7 / 0;
  q /= 1 - 1;
}

void main() {
  B.div(3);
}
`
	sys := oracle.Load(t, "zerodiv.mc", source)
	if _, err := sys.RunSerial(io.Discard); err == nil || !strings.Contains(err.Error(), "by zero") {
		t.Fatalf("the interpreter's run: %v, want a division by zero", err)
	}
	dir := t.TempDir()
	if err := nativegen.Generate(sys, "zerodiv", dir); err != nil {
		t.Fatal(err)
	}
	bin, err := nativegen.Build(dir)
	if err != nil {
		t.Fatal(err)
	}
	vet := exec.Command("go", "vet", ".")
	vet.Dir = dir
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet on the emitted package: %v\n%s", err, out)
	}
	if out, err := nativegen.Run(bin, "-mode", "serial"); err == nil {
		t.Errorf("the binary ran to the end (%q); want a division by zero", out)
	}
}

// declinesAsBuilt: on the plan as built the cutoff declines some entry.
func declinesAsBuilt(r oracle.Run) string {
	if !r.Cleared && r.Stats.RegionsDeclined == 0 {
		return "declined nothing on the plan as built"
	}
	return ""
}

// pingPong drives SpecDisjoint's speculative extent from two mutually
// recursive serial methods (they print, so they stay serial drivers).
const pingPong = `
class drv {
public:
  int unused;
  void ping(int n);
  void pong(int n);
};

drv D;

void drv::ping(int n) {
  print(n);
  if (n > 0) {
    pong(n - 1);
  }
  T.fill();
}

void drv::pong(int n) {
  print(n);
  if (n > 0) {
    ping(n - 1);
  }
}

void main() {
  T.init();
  D.ping(3);
  D.pong(3);
  T.report();
}
`

// nestedRoots calls one region root from inside another: entered from
// serial code each is a region entry of its own, but inside a declined
// outer the inner is just part of the serial version — one decline, in
// both runtimes.
const nestedRoots = `
class counter {
public:
  int total;
  void add(int v);
};

class driver {
public:
  counter *c;
  void init();
  void outer();
  void inner();
};

driver D;

void counter::add(int v) {
  total = total + v;
}

void driver::init() {
  c = new counter;
}

void driver::inner() {
  c->add(2);
  c->add(3);
}

void driver::outer() {
  c->add(1);
  this->inner();
}

void main() {
  D.init();
  D.outer();
  D.inner();
  print(D.c->total);
}
`

// valueRoot consumes the result of a method that spawns: only its result
// keeps step from being a region root, and the cutoff would decline it.
const valueRoot = `
class counter {
public:
  int total;
  void add(int v);
};

class driver {
public:
  counter *c;
  int seen;
  void init();
  int step();
};

driver D;

void counter::add(int v) {
  total = total + v;
}

void driver::init() {
  c = new counter;
}

int driver::step() {
  c->add(1);
  c->add(2);
  return 7;
}

void main() {
  int x;
  D.init();
  x = D.step();
  D.seen = x;
  print(x, D.c->total);
}
`
