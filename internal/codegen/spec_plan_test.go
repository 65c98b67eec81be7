package codegen_test

import (
	"bytes"
	"testing"

	"commute/internal/analysis/symbolic"
	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/cond"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

func buildSpeculativePlan(t *testing.T, source string) (*types.Program, *codegen.Plan) {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog, codegen.BuildWithOptions(core.New(prog), codegen.Options{SpeculateRejected: true})
}

// TestSpeculativePlanDisjoint: the rejected fill extent gains a
// speculative parallel version with its loop planned parallel, while
// the default plan leaves it serial.
func TestSpeculativePlanDisjoint(t *testing.T) {
	prog, plan := buildSpeculativePlan(t, src.SpecDisjoint)
	fill := prog.MethodByFullName("table::fill")

	base := codegen.Build(core.New(prog))
	if base.Methods[fill].Parallel {
		t.Fatal("fill must be serial in the default plan")
	}

	mp := plan.Methods[fill]
	if !mp.Parallel || !mp.Speculative {
		t.Fatalf("fill plan = %+v, want parallel+speculative", mp)
	}
	if !mp.SpecEligible {
		t.Error("fill must be speculation-eligible")
	}
	if mp.Confidence <= 0 || mp.Confidence >= 1 {
		t.Errorf("fill confidence = %v, want strictly between 0 and 1", mp.Confidence)
	}
	if mp.SpecWrites == nil || len(mp.SpecWrites.Slice()) == 0 {
		t.Error("fill plan carries no declared write effects")
	}
	if !plan.GeneratesConcurrency(fill) {
		t.Error("speculative fill must generate concurrency (its parallel loop)")
	}
	foundParallelLoop := false
	for _, lp := range plan.Loops {
		if lp.Method == fill && lp.Parallel {
			foundParallelLoop = true
		}
	}
	if !foundParallelLoop {
		t.Error("fill's loop was not planned parallel")
	}

	// main allocates (via init) — structurally rejected, never speculated.
	if mp := plan.Methods[prog.Main]; mp.Speculative {
		t.Error("main must not be speculative")
	}
}

// TestSpeculativePlanConflict: run's two mark invocations become spawn
// sites so the violating program really races its tasks' logs.
func TestSpeculativePlanConflict(t *testing.T) {
	prog, plan := buildSpeculativePlan(t, src.SpecConflict)
	run := prog.MethodByFullName("driver::run")
	mp := plan.Methods[run]
	if !mp.Parallel || !mp.Speculative {
		t.Fatalf("run plan = %+v, want parallel+speculative", mp)
	}
	spawns := 0
	for _, cs := range run.CallSites {
		if mp.Site[cs.ID] == codegen.ActionSpawn {
			spawns++
		}
	}
	if spawns != 2 {
		t.Errorf("run spawn sites = %d, want 2", spawns)
	}
	if !plan.GeneratesConcurrency(run) {
		t.Error("speculative run must generate concurrency")
	}
}

// TestRefusedGuardPlansUnproven: a conditional-eligible extent whose guard
// the check refuses — here an int-valued atom — gets no Conditional plan.
// It is planned as the speculative extent it also is, and with guards on
// both runtimes run it as one: no guard is asked, the serial version runs
// under -speculate off and a journaled region under force, and the state
// is the serial walker's.
func TestRefusedGuardPlansUnproven(t *testing.T) {
	const rounds = 4
	prog, _ := buildSpeculativePlan(t, src.CondHashBase+src.CondHashMain(0, rounds))
	a := core.New(prog)
	refused := 0
	for _, r := range a.AnalyzeAll() {
		if r.ConditionalEligible {
			r.Guard = cond.MkAtom(symbolic.Extent{ID: "ec:table.mode@global:H"})
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("condhash has no conditional-eligible extent")
	}
	plan := codegen.BuildWithOptions(a, codegen.Options{ConditionalGuards: true, SpeculateRejected: true})
	ingest := prog.MethodByFullName("table::ingest")
	if mp := plan.Methods[ingest]; mp.Conditional || mp.Guard != nil || !mp.Speculative {
		t.Fatalf("ingest plan: conditional %t, guard %v, speculative %t; want an unguarded speculative plan", mp.Conditional, mp.Guard, mp.Speculative)
	}
	for _, mp := range plan.Methods {
		mp.Work = 0 // open every region the tier allows
	}

	var ref bytes.Buffer
	code := interp.Compile(prog)
	walker := interp.NewEngine(code, &ref, interp.EngineWalk)
	if err := walker.Run(walker.NewCtx()); err != nil {
		t.Fatal(err)
	}
	nativegen.DumpInterp(&ref, prog, walker)

	var bin string
	if nativegen.HaveGo() {
		dir := t.TempDir()
		if err := nativegen.GeneratePlan(plan, "condhash", dir); err != nil {
			t.Fatal(err)
		}
		var err error
		if bin, err = nativegen.Build(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecForce} {
		want := rt.Stats{}
		if spec == rt.SpecForce {
			want.SpeculativeRegions = rounds
		}
		var out bytes.Buffer
		ip := interp.New(code, &out)
		r := rt.New(ip, plan, 1)
		r.Conditional, r.Speculate = true, spec
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		nativegen.DumpInterp(&out, prog, ip)
		got := rt.Stats{GuardParallel: r.Stats.GuardParallel, GuardSerial: r.Stats.GuardSerial, SpeculativeRegions: r.Stats.SpeculativeRegions}
		if got != want || out.String() != ref.String() {
			t.Errorf("interpreter, -speculate %s: counted %+v, want %+v; state matches the walker's: %t", spec, got, want, out.String() == ref.String())
		}
		if bin == "" {
			continue
		}
		stdout, stderr, err := nativegen.RunErr(bin, "-mode", "parallel", "-workers", "1", "-conditional", "-speculate", spec.String(), "-guardstats", "-specstats", "-dump")
		if err != nil {
			t.Fatal(err)
		}
		n := nativegen.CounterStats(stderr)
		got = rt.Stats{GuardParallel: n["guard_parallel"], GuardSerial: n["guard_serial"], SpeculativeRegions: n["spec_regions"]}
		if got != want || stdout != ref.String() {
			t.Errorf("native, -speculate %s: counted %+v, want %+v; state matches the walker's: %t", spec, got, want, stdout == ref.String())
		}
	}
}
