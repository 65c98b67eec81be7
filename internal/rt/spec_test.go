package rt_test

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"testing"
	"time"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/rt"
)

// shadowApp has what a slot-to-key table can get wrong: inherited slots,
// and a subclass field shadowing a base one. put writes both x's.
const shadowApp = `
const int N = 8;

class base {
public:
  int x;
  int y;
  void setx(int v);
};

class sub : public base {
public:
  int x;
  int z;
  void put(int v);
};

class holder {
public:
  sub *items[N];
  void init();
  void fill();
  void report();
};

holder H;

void base::setx(int v) {
  x = v;
}

void sub::put(int v) {
  x = v;
  z = v + 1;
  y = v + 2;
  this->setx(v + 3);
}

void holder::init() {
  int i;
  for (i = 0; i < N; i += 1) {
    items[i] = new sub;
  }
}

void holder::fill() {
  int i;
  for (i = 0; i < N; i += 1) {
    items[i]->put(i * 5);
  }
}

void holder::report() {
  int i;
  for (i = 0; i < N; i += 1) {
    print(items[i]->x, items[i]->z, items[i]->y);
  }
}

void main() {
  H.init();
  H.fill();
  H.report();
}
`

// keyLiteral matches a declared-effect key where the emitter writes one:
// the last argument of a SpecLoad/SpecStore/SpecTouch, or a key of a
// specRd_/specWr_ set.
var keyLiteral = regexp.MustCompile(`"(\w+\.\w+)"[):]`)

// TestSlotKeysNameFieldsLikeTheEmitter: both front ends of the journal
// hand it "Class.field" keys and one codegen enumeration declares them,
// so the interpreter must name a slot exactly as the emitter names the
// field behind it. For every class of every shipped program and of
// shadowApp the key of each layout slot — the QualName of the field
// there — is "decl.field", and every key the emitted prog.go carries
// names a slot; shadowApp, run speculatively on the interpreter,
// commits with the serial output.
func TestSlotKeysNameFieldsLikeTheEmitter(t *testing.T) {
	for _, app := range []struct{ name, source string }{
		{"barneshut", src.BarnesHut},
		{"water", src.Water},
		{"graph", src.Graph},
		{"condhash", src.CondHashBase + src.CondHashMain(0, 4)},
		{"specdisjoint", src.SpecDisjoint},
		{"specconflict", src.SpecConflict},
		{"shadow", shadowApp},
	} {
		sys := oracle.ClearWork(oracle.Load(t, app.name+".mc", app.source))
		prog, plan := sys.Prog, sys.Plan
		known := map[string]bool{}
		for _, cl := range prog.ClassList {
			for slot, f := range cl.Layout {
				want := f.Class.Name + "." + f.Name
				if got := f.QualName(); got != want || f.Slot != slot {
					t.Errorf("%s: slot %d of class %s is keyed %q at slot %d, want %q", app.name, slot, cl.Name, got, f.Slot, want)
				}
				known[want] = true
			}
		}
		files, err := plan.EmitGoPackage(codegen.EmitGoOptions{AppName: app.name})
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		emitted := map[string]bool{}
		for _, m := range keyLiteral.FindAllSubmatch(files["prog.go"], -1) {
			emitted[string(m[1])] = true
			if !known[string(m[1])] {
				t.Errorf("%s: prog.go carries the key %q, which names no slot of the interpreter", app.name, m[1])
			}
		}
		if app.name != "shadow" {
			continue
		}
		for _, k := range []string{"base.x", "sub.x", "base.y", "sub.z", "holder.items"} {
			if !emitted[k] {
				t.Errorf("shadow: prog.go carries no key %q (keyLiteral out of date?)", k)
			}
		}
		r := rt.New(interp.New(interp.Compile(prog), new(bytes.Buffer)), plan, 4)
		r.Speculate = rt.SpecForce
		if err := r.Run(); err != nil {
			t.Fatalf("shadow: %v", err)
		}
		if got, want := state(r), oracle.Reference(t, prog); r.Stats.SpeculationCommits != 1 || r.Stats.SpeculationAborts != 0 || got != want {
			t.Errorf("shadow: %d commits, %d aborts, state %.200q; want 1, 0, %.200q",
				r.Stats.SpeculationCommits, r.Stats.SpeculationAborts, got, want)
		}
	}
}

// TestSpeculativeValidateFault: an injected panic at the validate
// boundary — after the tasks finished, before commit — must abort the
// region and rerun serially with bit-identical results.
func TestSpeculativeValidateFault(t *testing.T) {
	for _, source := range []string{src.SpecDisjoint, src.SpecConflict} {
		r := newRuntime(t, source, 4)
		r.Speculate = rt.SpecForce
		r.Faults = &rt.FaultPlan{PanicOnValidate: 1}
		if err := r.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if got, want := state(r), oracle.Reference(t, r.IP.Prog); got != want {
			t.Errorf("state %.200q, want %.200q", got, want)
		}
		if r.Stats.SpeculationAborts == 0 {
			t.Error("validate fault did not abort")
		}
		if r.Stats.SpeculationCommits != 0 {
			t.Error("validate fault still committed")
		}
		if r.Stats.TaskPanics == 0 {
			t.Error("injected validate panic was not captured")
		}
	}
}

// TestSpeculativeSpawnFault: a fault injected into a speculative task
// aborts the region; the serial rerun is exact because nothing was
// committed.
func TestSpeculativeSpawnFault(t *testing.T) {
	r := newRuntime(t, src.SpecConflict, 4)
	r.Speculate = rt.SpecForce
	r.Faults = &rt.FaultPlan{PanicOnSpawn: 1}
	if err := r.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := state(r), oracle.Reference(t, r.IP.Prog); got != want {
		t.Errorf("state %.200q, want %.200q", got, want)
	}
	if r.Stats.SpeculationAborts == 0 {
		t.Error("spawn fault did not abort the speculative region")
	}
}

// TestSpeculationStatsStress hammers the Stats counters' error paths
// under -race: repeated speculative runs with probabilistic task
// panics increment TaskPanics / Tasks / SpeculationAborts concurrently
// from pool workers, and proven-path runs do the same for Steals /
// LocalPops / TaskPanics. The assertions are sanity
// bounds; the real check is the race detector proving every increment
// is atomic (the counter audit found them all atomic already — this
// locks that in as a regression test).
func TestSpeculationStatsStress(t *testing.T) {
	var want string
	for seed := int64(0); seed < 20; seed++ {
		r := newRuntime(t, src.SpecConflict, 4)
		r.Speculate = rt.SpecForce
		r.Faults = &rt.FaultPlan{Seed: seed, PanicRate: 0.4}
		if err := r.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want == "" {
			want = oracle.Reference(t, r.IP.Prog)
		}
		if got := state(r); got != want {
			t.Errorf("seed %d: state %.200q, want %.200q", seed, got, want)
		}
		if r.Stats.SpeculationCommits+r.Stats.SpeculationAborts != r.Stats.SpeculativeRegions {
			t.Errorf("seed %d: commits %d + aborts %d != speculative regions %d", seed,
				r.Stats.SpeculationCommits, r.Stats.SpeculationAborts, r.Stats.SpeculativeRegions)
		}
	}

	// Proven-path counters under the same probabilistic faulting.
	for seed := int64(0); seed < 5; seed++ {
		r := newRuntime(t, src.Graph, 4)
		r.Faults = &rt.FaultPlan{Seed: seed, PanicRate: 0.1}
		err := r.Run()
		var te *rt.TaskError
		if (r.Stats.TaskPanics > 0) != errors.As(err, &te) {
			t.Errorf("graph seed %d: %d panics, err = %v", seed, r.Stats.TaskPanics, err)
		}
	}
}

// TestSpeculativeCallerTimeout: the caller's own deadline is never
// speculated past — the region returns the error without a serial
// rerun, and no buffered write reaches the heap.
func TestSpeculativeCallerTimeout(t *testing.T) {
	r := newRuntime(t, src.SpecConflict, 2)
	r.Speculate = rt.SpecForce
	r.Faults = &rt.FaultPlan{DelayOnSpawn: 300 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := r.RunContext(ctx); err == nil {
		t.Fatal("expected a deadline error")
	}
	if r.Stats.SpeculationAborts != 0 {
		t.Errorf("aborts = %d: a caller timeout must not trigger a serial rerun",
			r.Stats.SpeculationAborts)
	}
	if r.Stats.SpeculationCommits != 0 {
		t.Error("timed-out region committed")
	}
}
