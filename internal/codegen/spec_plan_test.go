package codegen_test

import (
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
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
