package codegen_test

import (
	"sort"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/types"
)

// runLoops returns the loop plans of driver::run in source order.
func runLoops(t *testing.T, prog *types.Program, plan *codegen.Plan) []*codegen.LoopPlan {
	t.Helper()
	run := prog.MethodByFullName("driver::run")
	var out []*codegen.LoopPlan
	for _, lp := range plan.Loops {
		if lp.Method == run {
			out = append(out, lp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stmt.Pos().Line < out[j].Stmt.Pos().Line })
	return out
}

// TestLoopLegality: the plan's verdict on every legality fixture — a
// refused loop is still a candidate (found), is never Parallel, with or
// without nested-concurrency suppression, and is no source of
// concurrency — and on the legal body shapes that must stay parallel.
func TestLoopLegality(t *testing.T) {
	for _, fx := range src.LoopFixtures() {
		prog, plan := buildPlan(t, fx.Source)
		loops := runLoops(t, prog, plan)
		if len(loops) == 0 || plan.LoopsFound != len(loops) {
			t.Fatalf("%s: %d candidate loops in driver::run, %d found", fx.Name, len(loops), plan.LoopsFound)
		}
		if loops[0].Reason != fx.Reason {
			t.Errorf("%s: reason %q, want %q", fx.Name, loops[0].Reason, fx.Reason)
		}
		for _, opt := range []codegen.Options{{}, {DisableSuppression: true}, {SpeculateRejected: true, ConditionalGuards: true}} {
			p := codegen.BuildWithOptions(core.New(prog), opt)
			parallel := 0
			for _, lp := range p.Loops {
				if lp.Parallel {
					parallel++
					if lp.Reason != "" || lp.Header.Var == nil {
						t.Errorf("%s %+v: parallel loop with reason %q, header %+v", fx.Name, opt, lp.Reason, lp.Header)
					}
				}
			}
			if parallel != fx.Parallel || p.LoopsFound-p.LoopsSuppressed-p.LoopsRefused != parallel {
				t.Errorf("%s %+v: %d parallel loops, want %d (%d found, %d suppressed, %d refused)",
					fx.Name, opt, parallel, fx.Parallel, p.LoopsFound, p.LoopsSuppressed, p.LoopsRefused)
			}
		}
		// The spawns of driver::run still make it a region root.
		if run := prog.MethodByFullName("driver::run"); !plan.RegionRoot(run) {
			t.Errorf("%s: driver::run is no region root", fx.Name)
		}
	}

	for _, tc := range []struct{ name, run, reason string }{
		{"private temp", `
  for (i = 0; i < cnt; i += 1) {
    c = cells[i];
    c->bump(1);
  }`, ""},
		{"temp under both arms", `
  for (i = 0; i < cnt; i += 1) {
    if (i < five) {
      k = 1;
    } else {
      k = 2;
    }
    cells[i]->bump(k);
  }`, ""},
		{"declared in the body", `
  for (i = 0; i < cnt; i += 1) {
    int q = i + 1;
    cells[i]->bump(q);
  }`, ""},
		{"v = v + 1 as the post", `
  for (i = 0; i < cnt; i = i + 1) {
    cells[i]->bump(1);
  }`, ""},
		{"stored before the loop, never read outside", `
  k = 7;
  for (i = 0; i < cnt; i += 1) {
    k = i;
    cells[k]->bump(1);
  }`, ""},
		{"temp under one arm", `
  for (i = 0; i < cnt; i += 1) {
    if (i < five) {
      k = 1;
    }
    cells[i]->bump(k);
  }`, "k carried across iterations"},
		{"compound assignment reads", `
  for (i = 0; i < cnt; i += 1) {
    k += 1;
    cells[i]->bump(k);
  }`, "k carried across iterations"},
		{"read before the loop", `
  cells[k]->bump(1);
  for (i = 0; i < cnt; i += 1) {
    k = i;
    cells[k]->bump(1);
  }`, "k read before the loop"},
		{"bound reads the loop variable", `
  for (i = 0; i < i + 1; i += 1) {
    cells[0]->bump(1);
    if (i > 3) {
      return;
    }
  }`, "not a candidate"},
	} {
		prog, plan := buildPlan(t, src.LoopProgram(64, tc.run))
		loops := runLoops(t, prog, plan)
		if tc.reason == "not a candidate" {
			if len(loops) != 0 {
				t.Errorf("%s: a loop with a return in it is a candidate", tc.name)
			}
			continue
		}
		if len(loops) != 1 || loops[0].Reason != tc.reason || loops[0].Parallel != (tc.reason == "") {
			t.Errorf("%s: loops %d, reason %q, want %q", tc.name, len(loops), loops[0].Reason, tc.reason)
		}
	}

	// A bound that reads the loop variable never ends the way a counted
	// loop does.
	prog, plan := buildPlan(t, src.LoopProgram(64, `
  for (i = 0; i < i + cnt; i += 1) {
    cells[0]->bump(1);
  }`))
	if loops := runLoops(t, prog, plan); len(loops) != 1 || loops[0].Reason != "header is not a counted loop" {
		t.Errorf("bound reading the loop variable: %+v", loops)
	}
}

// TestEmitSourceMarksOnlyParallelLoops: -emit source prints
// parallel_for exactly where a runtime runs a parallel loop.
func TestEmitSourceMarksOnlyParallelLoops(t *testing.T) {
	for _, fx := range src.LoopFixtures() {
		out := emit(t, fx.Source)
		if got := strings.Count(out, "  parallel_for ("); got != fx.Parallel {
			t.Errorf("%s: %d parallel_for in the emitted source, want %d", fx.Name, got, fx.Parallel)
		}
	}
}
