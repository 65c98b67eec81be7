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
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/rt"
)

// buildSpec compiles a program with the speculative plan extension.
func buildSpec(t testing.TB, source string) (*types.Program, *codegen.Plan) {
	t.Helper()
	prog, plan := planAsBuilt(t, source, codegen.Options{SpeculateRejected: true})
	return prog, clearWork(plan)
}

// serialOutput runs the program on the plain serial interpreter and
// returns its print output (the bit-identical reference).
func serialOutput(t *testing.T, prog *types.Program, eng interp.Engine) string {
	t.Helper()
	var buf bytes.Buffer
	ip := interp.NewEngine(prog, &buf, eng)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return buf.String()
}

// specDisjointState reads every cell value plus the reported sum.
func specDisjointState(t *testing.T, prog *types.Program, ip *interp.Interp) []int64 {
	t.Helper()
	tbl := ip.Globals["T"]
	tableCl := prog.Classes["table"]
	cellCl := prog.Classes["cell"]
	cells := tbl.Slots[ip.FieldSlot(tableCl, "table", "cells")].Array()
	var out []int64
	for _, cv := range cells.Elems {
		out = append(out, cv.Object().Slots[ip.FieldSlot(cellCl, "cell", "val")].Int())
	}
	out = append(out, tbl.Slots[ip.FieldSlot(tableCl, "table", "sum")].Int())
	return out
}

// specConflictState reads the counter's last and total.
func specConflictState(t *testing.T, prog *types.Program, ip *interp.Interp) [2]int64 {
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
// shadowApp the key of the slot of (declaring class, field) is
// "decl.field", and every key the emitted prog.go carries is in the
// table; shadowApp, run speculatively on the interpreter, commits with
// the serial output.
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
		prog, plan := buildCond(t, app.source)
		keys := rt.SlotKeys(interp.New(prog, nil))
		known := map[string]bool{}
		for _, cl := range prog.ClassList {
			if got, want := len(keys[cl]), interp.ClassSlotCount(prog, cl); got != want {
				t.Errorf("%s: class %s has %d slot keys, %d slots", app.name, cl.Name, got, want)
				continue
			}
			for _, f := range interp.ClassLayout(prog, cl) {
				want := f.DeclClass + "." + f.Name
				if got := keys[cl][f.Slot]; got != want {
					t.Errorf("%s: slot %d of class %s is keyed %q, want %q", app.name, f.Slot, cl.Name, got, want)
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
		want := serialOutput(t, prog, interp.EngineWalk)
		var buf bytes.Buffer
		r := rt.New(interp.New(prog, &buf), plan, 4)
		r.Speculate = rt.SpecForce
		if err := r.Run(); err != nil {
			t.Fatalf("shadow: %v", err)
		}
		if r.Stats.SpeculationCommits != 1 || r.Stats.SpeculationAborts != 0 || buf.String() != want {
			t.Errorf("shadow: %d commits, %d aborts, output %q; want 1, 0, %q",
				r.Stats.SpeculationCommits, r.Stats.SpeculationAborts, buf.String(), want)
		}
	}
}

// TestSpeculativeDisjointCommits: the statically-rejected fill extent
// runs speculatively, observes no runtime conflicts, and commits — and
// the committed state and output are bit-identical to the serial
// walker's across worker counts.
func TestSpeculativeDisjointCommits(t *testing.T) {
	prog, plan := buildSpec(t, src.SpecDisjoint)
	var ref bytes.Buffer
	ipRef := interp.NewEngine(prog, &ref, interp.EngineWalk)
	if err := ipRef.Run(ipRef.NewCtx()); err != nil {
		t.Fatal(err)
	}
	want, wantState := ref.String(), specDisjointState(t, prog, ipRef)

	for _, workers := range []int{1, 2, 4} {
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		r := rt.New(ip, plan, workers)
		r.Speculate = rt.SpecForce
		if err := r.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("workers=%d: output %q, want %q", workers, got, want)
		}
		got := specDisjointState(t, prog, ip)
		for i := range wantState {
			if got[i] != wantState[i] {
				t.Errorf("workers=%d: state[%d] = %d, want %d", workers, i, got[i], wantState[i])
			}
		}
		if r.Stats.SpeculationCommits == 0 {
			t.Errorf("workers=%d: no speculation commits", workers)
		}
		if r.Stats.SpeculationAborts != 0 {
			t.Errorf("workers=%d: %d aborts on a conflict-free program", workers, r.Stats.SpeculationAborts)
		}
	}
}

// TestSpeculativeConflictAborts: the guaranteed-violating program
// aborts, reruns serially, and ends bit-identical to serial.
func TestSpeculativeConflictAborts(t *testing.T) {
	prog, plan := buildSpec(t, src.SpecConflict)
	want := serialOutput(t, prog, interp.EngineWalk)
	for _, workers := range []int{1, 2, 4} {
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		r := rt.New(ip, plan, workers)
		r.Speculate = rt.SpecForce
		if err := r.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("workers=%d: output %q, want %q", workers, got, want)
		}
		if got := specConflictState(t, prog, ip); got != [2]int64{2, 3} {
			t.Errorf("workers=%d: state = %v, want [2 3]", workers, got)
		}
		if r.Stats.SpeculationAborts == 0 {
			t.Errorf("workers=%d: violating program did not abort", workers)
		}
		if r.Stats.SpeculationCommits != 0 {
			t.Errorf("workers=%d: violating region committed", workers)
		}
	}
}

// TestSpeculativeAutoThreshold: auto mode speculates an extent whose
// confidence clears rt.DefaultSpecThreshold (the rule on both sides of
// the threshold is nativert's TestEnterTable).
func TestSpeculativeAutoThreshold(t *testing.T) {
	prog, plan := buildSpec(t, src.SpecDisjoint)
	want := serialOutput(t, prog, interp.EngineCompiled)
	var buf bytes.Buffer
	ip := interp.New(prog, &buf)
	r := rt.New(ip, plan, 4)
	r.Speculate = rt.SpecAuto
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	// fill's confidence is 2/3.
	if r.Stats.SpeculativeRegions == 0 {
		t.Errorf("confidence 2/3 at threshold %v: no speculation", rt.DefaultSpecThreshold)
	}
}

// TestSpeculativeOffStaysSerial: with speculation off, a plan carrying
// speculative versions still runs the rejected extent serially.
func TestSpeculativeOffStaysSerial(t *testing.T) {
	prog, plan := buildSpec(t, src.SpecConflict)
	want := serialOutput(t, prog, interp.EngineCompiled)
	var buf bytes.Buffer
	ip := interp.New(prog, &buf)
	r := rt.New(ip, plan, 4)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	if r.Stats.SpeculativeRegions != 0 || r.Stats.Regions != 0 {
		t.Errorf("regions = %d speculative = %d, want 0/0",
			r.Stats.Regions, r.Stats.SpeculativeRegions)
	}
}

// TestSpeculativeValidateFault: an injected panic at the validate
// boundary — after the tasks finished, before commit — must abort the
// region and rerun serially with bit-identical results.
func TestSpeculativeValidateFault(t *testing.T) {
	for _, source := range []string{src.SpecDisjoint, src.SpecConflict} {
		prog, plan := buildSpec(t, source)
		want := serialOutput(t, prog, interp.EngineCompiled)
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		r := rt.New(ip, plan, 4)
		r.Speculate = rt.SpecForce
		r.Faults = &rt.FaultPlan{PanicOnValidate: 1}
		if err := r.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if got := buf.String(); got != want {
			t.Errorf("output %q, want %q", got, want)
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
	prog, plan := buildSpec(t, src.SpecConflict)
	want := serialOutput(t, prog, interp.EngineCompiled)
	var buf bytes.Buffer
	ip := interp.New(prog, &buf)
	r := rt.New(ip, plan, 4)
	r.Speculate = rt.SpecForce
	r.Faults = &rt.FaultPlan{PanicOnSpawn: 1}
	if err := r.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := buf.String(); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	if got := specConflictState(t, prog, ip); got != [2]int64{2, 3} {
		t.Errorf("state = %v, want [2 3]", got)
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
	prog, plan := buildSpec(t, src.SpecConflict)
	want := serialOutput(t, prog, interp.EngineCompiled)
	for seed := int64(0); seed < 20; seed++ {
		var buf bytes.Buffer
		ip := interp.New(prog, &buf)
		r := rt.New(ip, plan, 4)
		r.Speculate = rt.SpecForce
		r.Faults = &rt.FaultPlan{Seed: seed, PanicRate: 0.4}
		if err := r.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("seed %d: output %q, want %q", seed, got, want)
		}
		if got := specConflictState(t, prog, ip); got != [2]int64{2, 3} {
			t.Errorf("seed %d: state = %v, want [2 3]", seed, got)
		}
		if r.Stats.SpeculationCommits+r.Stats.SpeculationAborts != r.Stats.SpeculativeRegions {
			t.Errorf("seed %d: commits %d + aborts %d != speculative regions %d", seed,
				r.Stats.SpeculationCommits, r.Stats.SpeculationAborts, r.Stats.SpeculativeRegions)
		}
	}

	// Proven-path counters under the same probabilistic faulting.
	gprog, gplan := build(t, src.Graph)
	for seed := int64(0); seed < 5; seed++ {
		ip := interp.New(gprog, nil)
		r := rt.New(ip, gplan, 4)
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
	prog, plan := buildSpec(t, src.SpecConflict)
	ip := interp.New(prog, nil)
	r := rt.New(ip, plan, 2)
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
