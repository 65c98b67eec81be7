package nativegen_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

// pingPong drives SpecDisjoint's speculative extent from two mutually
// recursive serial methods (they print, so they stay serial drivers):
// every fill below them must still open its region natively, which takes
// a D_ version of both halves of the cycle.
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

// valueRoot consumes the result of a method that spawns: only its
// result keeps step from being a region root.
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

// TestPolicyParity: the interpreter runtime and the emitted binary run
// one plan and apply one rule at region entry, so under every
// -conditional × -speculate combination they take the same tier at every
// region: the six policy counters agree, and both final states equal
// the serial tree walker's; and they read one loop plan, so the
// interpreter runs parallel loops only where the emitted text has a GSS
// call (rows initop, le and final: exactly where). Counters are compared
// at one worker, where
// the number of loop claimants — and with it whether a conflicting
// speculative region commits or aborts — does not depend on timing; at
// four workers only the state is compared. Every program runs twice: on
// the plan as built, where both runtimes decline its tiny regions (and
// the other five counters are 0 on both sides), and with the work
// estimates cleared, where both open every one of them.
func TestPolicyParity(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	type row struct {
		name, code string
		cleared    bool
	}
	var rows []row
	for _, tc := range []struct{ name, code string }{
		{"condhash0", src.CondHashBase + src.CondHashMain(0, 6)},
		{"condhash3", src.CondHashBase + src.CondHashMain(3, 6)},
		{"specdisjoint", src.SpecDisjoint},
		{"specconflict", src.SpecConflict},
		{"pingpong", src.SpecDisjoint[:strings.Index(src.SpecDisjoint, "void main()")] + pingPong},
		{"nested", nestedRoots},
	} {
		rows = append(rows, row{tc.name, tc.code, false}, row{tc.name + "-cleared", tc.code, true})
	}
	// Three legality fixtures, once each: a loop to a field bounds no
	// estimate, so their one region opens cleared or not.
	loopRows := map[string]bool{}
	for _, fx := range src.LoopFixtures() {
		if fx.Name == "initop" || fx.Name == "le" || fx.Name == "final" {
			rows = append(rows, row{fx.Name, fx.Source, true})
			loopRows[fx.Name] = true
		}
	}
	// The region-entry fixtures: a method that returns a value is no
	// root, so no counter moves on either side, cleared or not.
	for _, fx := range src.EntryFixtures() {
		rows = append(rows, row{fx.Name, fx.Source, true})
	}
	// The in-region dispatch fixtures, their trees cut to depth 9: both
	// sides run call sites by the plan's one rule, so they open the one
	// region, run no loop in it and agree on the state. (The emitted
	// nested-spawn did not compile.) TestNativeDispatchFixtures runs them
	// at size.
	for _, fx := range src.DispatchFixtures() {
		rows = append(rows, row{fx.Name, fx.AtDepth(9), true})
	}
	for _, tc := range rows {
		sys, err := commute.Load(tc.name+".mc", tc.code)
		if err != nil {
			t.Fatal(err)
		}
		if tc.cleared {
			clearWork(sys)
		}
		dir := t.TempDir()
		if err := nativegen.Generate(sys, tc.name, dir); err != nil {
			t.Fatal(err)
		}
		assertGofmt(t, dir)
		gss := emitsGSS(t, dir)
		bin, err := nativegen.Build(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := interpDump(t, sys, interp.EngineWalk)
		for _, conditional := range []bool{false, true} {
			for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecAuto, rt.SpecForce} {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s conditional=%t speculate=%s workers=%d", tc.name, conditional, spec, workers)

					var buf strings.Builder
					ip, st, err := sys.RunParallelOpts(context.Background(), commute.RunOptions{
						Workers: workers, Conditional: conditional, Speculate: spec,
					}, &buf)
					if err != nil {
						t.Fatalf("%s: interpreter: %v", label, err)
					}
					nativegen.DumpInterp(&buf, sys.Prog, ip)
					if got := buf.String(); got != want {
						t.Errorf("%s: interpreter state diverges from the serial walker:\n%s", label, firstDiff(want, got))
					}

					got, errOut, err := nativegen.RunErr(bin, "-mode", "parallel", "-workers", fmt.Sprint(workers),
						fmt.Sprintf("-conditional=%t", conditional), "-speculate", spec.String(),
						"-guardstats", "-specstats", "-dump")
					if err != nil {
						t.Fatalf("%s: native: %v", label, err)
					}
					if got != want {
						t.Errorf("%s: native state diverges from the serial walker:\n%s", label, firstDiff(want, got))
					}
					if workers != 1 {
						continue
					}
					if (st.RegionsDeclined == 0) != tc.cleared {
						t.Errorf("%s: the interpreter declined %d regions", label, st.RegionsDeclined)
					}
					if ran := st.ParallelLoops > 0; ran && !gss || loopRows[tc.name] && ran != gss {
						t.Errorf("%s: the interpreter ran %d parallel loops, GSS call in prog.go: %t", label, st.ParallelLoops, gss)
					}
					nat := nativegen.CounterStats(errOut)
					for _, c := range []struct {
						name   string
						interp int64
					}{
						{"spec_regions", st.SpeculativeRegions},
						{"spec_commits", st.SpeculationCommits},
						{"spec_aborts", st.SpeculationAborts},
						{"guard_parallel", st.GuardParallel},
						{"guard_serial", st.GuardSerial},
						{"regions_declined", st.RegionsDeclined},
					} {
						if nat[c.name] != c.interp {
							t.Errorf("%s: %s = %d on the interpreter, %d natively", label, c.name, c.interp, nat[c.name])
						}
					}
				}
			}
		}
	}
}

// TestValueRootKeepsItsResult: a method that returns a value is not a
// region root, however parallel its body — small (valueRoot, which the
// cutoff would decline) or large (src.EntryFixtures: a proven, a guarded
// and a speculative extent above both entry costs). The emitter accepts
// the program, and under every policy, at 2 and 4 workers, a call of it
// from serial code is the serial version, result included: output and
// state are the serial walker's, and no entry is counted, declined or
// otherwise. (Entered as a region the root's value was dropped: 0. The
// interpreter's half is internal/rt's TestValueRootsMatchSerial, and the
// fixtures' TestPolicyParity rows compare the two.)
func TestValueRootKeepsItsResult(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	progs := []src.EntryFixture{{Name: "valueroot", Source: valueRoot, Root: "driver::step"}}
	for _, fx := range append(progs, src.EntryFixtures()...) {
		sys, err := commute.Load(fx.Name+".mc", fx.Source)
		if err != nil {
			t.Fatal(err)
		}
		if root := sys.Prog.MethodByFullName(fx.Root); sys.CondPlan.RegionRoot(root) || !sys.CondPlan.Methods[root].Parallel {
			t.Fatalf("%s: %s is a region root, or has no parallel version", fx.Name, fx.Root)
		}
		dir := t.TempDir()
		if err := nativegen.Generate(sys, fx.Name, dir); err != nil {
			t.Fatal(err)
		}
		assertGofmt(t, dir)
		bin, err := nativegen.Build(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := interpDump(t, sys, interp.EngineWalk)
		for _, workers := range []int{2, 4} {
			for _, conditional := range []bool{false, true} {
				for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecAuto, rt.SpecForce} {
					label := fmt.Sprintf("%s workers=%d conditional=%t speculate=%s", fx.Name, workers, conditional, spec)
					got, errOut, err := nativegen.RunErr(bin, "-mode", "parallel", "-workers", fmt.Sprint(workers),
						fmt.Sprintf("-conditional=%t", conditional), "-speculate", spec.String(),
						"-guardstats", "-specstats", "-dump")
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got != want {
						t.Errorf("%s:\n%s", label, firstDiff(want, got))
					}
					for name, n := range nativegen.CounterStats(errOut) {
						if n != 0 {
							t.Errorf("%s: %s = %d", label, name, n)
						}
					}
				}
			}
		}
	}
}

// TestNativeDispatchFixtures: the in-region dispatch fixtures
// (src.DispatchFixtures) through the emitted binary. Every package
// builds; at 2 and 4 workers, under every policy, output and state are the
// serial walker's; and one run of each under the race detector is clean. (As emitted before, aux-loop's P_add
// handed Q_probe a closure that unlocked add's receiver ahead of probe's
// loop, and wrote total unlocked — wrong in two runs of five;
// hoist-escape's acc::add ran as S_add under another object's lock, right
// by luck and a DATA RACE on the first race run; nested-spawn's spawn of
// in.poke assigned a struct to a pointer. The interpreter's half is
// internal/rt's TestDispatchFixturesMatchSerial.)
func TestNativeDispatchFixtures(t *testing.T) {
	if !nativegen.HaveGo() {
		t.Skip("go toolchain not available")
	}
	for _, fx := range src.DispatchFixtures() {
		sys, err := commute.Load(fx.Name+".mc", fx.Source)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := nativegen.Generate(sys, fx.Name, dir); err != nil {
			t.Fatal(err)
		}
		assertGofmt(t, dir)
		bin, err := nativegen.Build(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := interpDump(t, sys, interp.EngineWalk)
		if !strings.HasPrefix(want, fx.Output) {
			t.Fatalf("%s: the serial walker prints %.12q, the fixture says %q", fx.Name, want, fx.Output)
		}
		for _, workers := range []int{2, 4} {
			for _, conditional := range []bool{false, true} {
				for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecAuto, rt.SpecForce} {
					got, err := nativegen.Run(bin, "-mode", "parallel", "-workers", fmt.Sprint(workers),
						fmt.Sprintf("-conditional=%t", conditional), "-speculate", spec.String(), "-dump")
					if err != nil {
						t.Fatalf("%s workers=%d: %v", fx.Name, workers, err)
					}
					if got != want {
						t.Errorf("%s workers=%d conditional=%t speculate=%s: native state diverges from the serial walker:\n%s",
							fx.Name, workers, conditional, spec, firstDiff(want, got))
					}
				}
			}
		}
		raceBin, err := nativegen.BuildRace(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := nativegen.Run(raceBin, "-mode", "parallel", "-workers", "4", "-dump"); err != nil {
			t.Errorf("%s: race run: %v", fx.Name, err)
		} else if got != want {
			t.Errorf("%s: race run diverges from the serial walker:\n%s", fx.Name, firstDiff(want, got))
		}
	}
}
