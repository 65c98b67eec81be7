package codegen

import (
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// TestEmitRegionEntryCostBoundary: a root bounded one unit under the
// emitter's regionEntryCost is emitted as its serial version behind the
// declined counter — no parallel version of it exists in the package —
// and one bounded at it as a region.
func TestEmitRegionEntryCostBoundary(t *testing.T) {
	emit := func(fives, threes int) (*MethodPlan, string) {
		f, err := parser.Parse("app.mc", src.StraightLineRoot(fives, threes))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatal(err)
		}
		p := Build(core.New(prog))
		files, err := p.EmitGoPackage(EmitGoOptions{AppName: "boundary"})
		if err != nil {
			t.Fatal(err)
		}
		return p.Methods[prog.MethodByFullName("driver::step")], string(files["prog.go"])
	}
	bare, _ := emit(0, 0)
	if !bare.Parallel || bare.Work <= 0 || bare.Work >= regionEntryCost-8 {
		t.Fatalf("the bare root: parallel=%t work=%d", bare.Parallel, bare.Work)
	}
	const (
		declined = "func (o *T_driver) R_step() {\n\tif rt_.Parallel {\n\t\trt_.RegionsDeclined++\n\t}\n\to.S_step()\n}\n"
		parallel = "func (o *T_driver) P_step(w *rtkit.Worker) {"
	)
	for _, tc := range []struct {
		work    int64
		decline bool
	}{{regionEntryCost - 1, true}, {regionEntryCost, false}} {
		step, prog := emit(src.StraightLinePadding(tc.work - bare.Work))
		if step.Work != tc.work {
			t.Fatalf("generated a root of work %d, want %d", step.Work, tc.work)
		}
		if got := strings.Contains(prog, declined); got != tc.decline {
			t.Errorf("work %d against an entry cost of %d: declined wrapper emitted = %t", tc.work, regionEntryCost, got)
		}
		if got := strings.Contains(prog, parallel) || strings.Contains(prog, "pool_.Drain()"); got == tc.decline {
			t.Errorf("work %d against an entry cost of %d: parallel version emitted = %t", tc.work, regionEntryCost, got)
		}
	}
}
