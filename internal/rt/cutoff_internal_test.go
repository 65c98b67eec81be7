package rt

import (
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// TestRegionEntryCostBoundary: a root bounded one unit under
// regionEntryCost is declined, one bounded at it opens its region.
func TestRegionEntryCostBoundary(t *testing.T) {
	plan := func(fives, threes int) (*types.Program, *codegen.MethodPlan, *codegen.Plan) {
		f, err := parser.Parse("app.mc", src.StraightLineRoot(fives, threes))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatal(err)
		}
		p := codegen.Build(core.New(prog))
		return prog, p.Methods[prog.MethodByFullName("driver::step")], p
	}
	_, bare, _ := plan(0, 0)
	if !bare.Parallel || bare.Work <= 0 || bare.Work >= regionEntryCost-8 {
		t.Fatalf("the bare root: parallel=%t work=%d", bare.Parallel, bare.Work)
	}
	for _, tc := range []struct {
		work     int64
		declined int64
	}{{regionEntryCost - 1, 1}, {regionEntryCost, 0}} {
		prog, step, p := plan(src.StraightLinePadding(tc.work - bare.Work))
		if step.Work != tc.work {
			t.Fatalf("generated a root of work %d, want %d", step.Work, tc.work)
		}
		r := New(interp.New(prog, nil), p, 2)
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if r.Stats.RegionsDeclined != tc.declined || r.Stats.Regions != 1-tc.declined {
			t.Errorf("work %d against an entry cost of %d: %d regions declined, %d opened", tc.work, regionEntryCost,
				r.Stats.RegionsDeclined, r.Stats.Regions)
		}
		if got := r.IP.Globals["D"].Slots[r.IP.FieldSlot(prog.Classes["driver"], "driver", "c")].Object().
			Slots[r.IP.FieldSlot(prog.Classes["counter"], "counter", "total")].Int(); got != 3 {
			t.Errorf("work %d: total = %d, want 3", tc.work, got)
		}
	}
}
