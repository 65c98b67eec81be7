package codegen_test

import (
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/rt"
)

// TestAnnotationsRoundTrip: Plan → annotation file → Plan reconstructs
// the same decisions, and the reconstructed plan executes correctly —
// the paper's analysis/codegen phase split (§6.2.3).
func TestAnnotationsRoundTrip(t *testing.T) {
	for _, source := range []string{src.Graph, src.BarnesHut, src.Water} {
		f, err := parser.Parse("app.mc", source)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatal(err)
		}
		plan := codegen.Build(core.New(prog))

		data, err := plan.AnnotationsJSON()
		if err != nil {
			t.Fatal(err)
		}
		ann, err := codegen.ParseAnnotations(data)
		if err != nil {
			t.Fatal(err)
		}
		// Apply against a freshly parsed and checked program, as the
		// separate code generation pass would.
		f2, err := parser.Parse("app.mc", source)
		if err != nil {
			t.Fatal(err)
		}
		prog2, err := types.Check(f2)
		if err != nil {
			t.Fatal(err)
		}
		plan2, err := codegen.ApplyAnnotations(prog2, ann)
		if err != nil {
			t.Fatal(err)
		}

		// Decisions agree method by method.
		for _, m := range prog.Methods {
			if m.Def == nil {
				continue
			}
			m2 := prog2.MethodByFullName(m.FullName())
			mp, mp2 := plan.Methods[m], plan2.Methods[m2]
			if mp.Parallel != mp2.Parallel || mp.NeedsLock != mp2.NeedsLock ||
				mp.HoldsLockThrough != mp2.HoldsLockThrough {
				t.Errorf("%s: decisions differ after round trip", m.FullName())
			}
		}
		if len(plan2.Loops) != len(plan.Loops) {
			t.Errorf("loops: %d → %d after round trip", len(plan.Loops), len(plan2.Loops))
		}
		if len(plan2.LockedClasses) != len(plan.LockedClasses) {
			t.Errorf("locked classes: %d → %d", len(plan.LockedClasses), len(plan2.LockedClasses))
		}

		// The reconstructed plan drives parallel execution.
		ip := interp.New(prog2, nil)
		r := rt.New(ip, plan2, 4)
		if err := r.Run(); err != nil {
			t.Fatalf("execution under reconstructed plan: %v", err)
		}
		if r.Stats.Regions == 0 {
			t.Error("reconstructed plan opened no parallel regions")
		}
	}
}

// TestAnnotationsAreOutsideInput: what an annotation file says of a loop
// is held against the program it is applied to — marking an illegal
// loop parallel, or addressing a parallel decision at a loop that is not
// counted, is an error, not a plan.
func TestAnnotationsAreOutsideInput(t *testing.T) {
	twoLoops := src.LoopProgram(64, `
  for (i = 0; i < cnt; i += 1) {
    cells[i]->bump(1);
  }
  for (i = 0; i <= cnt - 1; i += 1) {
    cells[i]->bump(1);
  }`)
	for _, tc := range []struct {
		name, source string
		edit         func(a *codegen.Annotations)
		want         string // "" for accepted
	}{
		{"unedited", twoLoops, func(*codegen.Annotations) {}, ""},
		{"illegal loop marked parallel", src.LoopFixtures()[0].Source, // skip
			func(a *codegen.Annotations) { a.Loops[0].Parallel = true },
			"body assigns loop variable i"},
		{"line moved to a loop that is not counted", twoLoops,
			func(a *codegen.Annotations) {
				a.Loops[0].Line = a.Loops[1].Line
				a.Loops = a.Loops[:1]
			},
			"header is not a counted loop"},
	} {
		_, plan := buildPlan(t, tc.source)
		data, err := plan.AnnotationsJSON()
		if err != nil {
			t.Fatal(err)
		}
		ann, err := codegen.ParseAnnotations(data)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(ann)
		prog2, _ := buildPlan(t, tc.source)
		plan2, err := codegen.ApplyAnnotations(prog2, ann)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "":
			if plan2.LoopsRefused != plan.LoopsRefused || plan2.LoopsRefused != 1 {
				t.Errorf("%s: %d loops refused after the round trip, %d before, want 1", tc.name, plan2.LoopsRefused, plan.LoopsRefused)
			}
			for _, lp := range plan2.Loops {
				if lp.Parallel != (lp.Reason == "") || lp.Parallel && lp.Header.Var == nil {
					t.Errorf("%s: loop at %s: parallel %t, reason %q, header %+v", tc.name, lp.Stmt.Pos(), lp.Parallel, lp.Reason, lp.Header)
				}
			}
		case err == nil || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestAnnotationsDriftDetected: applying annotations against a program
// whose call sites changed is rejected.
func TestAnnotationsDriftDetected(t *testing.T) {
	f, _ := parser.Parse("a.mc", src.Graph)
	prog, err := types.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	plan := codegen.Build(core.New(prog))
	data, err := plan.AnnotationsJSON()
	if err != nil {
		t.Fatal(err)
	}
	ann, err := codegen.ParseAnnotations(data)
	if err != nil {
		t.Fatal(err)
	}

	// A different program: same classes, extra call site.
	drifted := src.GraphBase + `
void main() {
  Builder.build(8);
  Builder.traverse();
  Builder.traverse();
}
`
	f2, _ := parser.Parse("b.mc", drifted)
	prog2, err := types.Check(f2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codegen.ApplyAnnotations(prog2, ann); err == nil {
		t.Error("drifted program must be rejected")
	}

	if _, err := codegen.ParseAnnotations([]byte("{oops")); err == nil {
		t.Error("malformed file must be rejected")
	}
}
