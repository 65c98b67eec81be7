package rt_test

// The granularity cutoff, on plans as built: a region root whose static
// work bound is under the runtime's entry cost runs its serial version,
// and a root with no bound opens its region as it always did. (The
// boundary itself is pinned beside the constant, in
// cutoff_internal_test.go.)

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

// fullPlan is the plan commute.System.CondPlan carries.
var fullPlan = codegen.Options{ConditionalGuards: true, SpeculateRejected: true}

// planAsBuilt compiles a program and plans it, work estimates and all.
func planAsBuilt(t testing.TB, source string, opt codegen.Options) (*types.Program, *codegen.Plan) {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog, codegen.BuildWithOptions(core.New(prog), opt)
}

// goroutinesAtWrite records the goroutine count whenever the program
// prints. The run-fine programs print once, after their last region and
// before RunContext shuts down any pool it started.
type goroutinesAtWrite struct {
	buf  bytes.Buffer
	peak int
}

func (w *goroutinesAtWrite) Write(p []byte) (int, error) {
	w.peak = max(w.peak, runtime.NumGoroutine())
	return w.buf.Write(p)
}

// TestDeclinedRegionsRunSerial: the four run-fine programs enter a region
// of a few hundred cost units per round. On the plan as built every one
// of those entries is declined, under every policy combination and
// worker count — the cutoff comes before the tier, and force overrides
// confidence, not profitability: the run is the serial run (output and
// full state equal to the tree walker's), counts one declined region per
// round and nothing else, and never starts the pool.
func TestDeclinedRegionsRunSerial(t *testing.T) {
	const rounds = 24
	for _, tc := range []struct{ name, source string }{
		{"condhash0", src.CondHashBase + src.CondHashMain(0, rounds)},
		{"condhash3", src.CondHashBase + src.CondHashMain(3, rounds)},
		{"spec-disjoint", repeated(src.SpecDisjoint, "T.init();", "T.fill();", rounds, "T.report();")},
		{"spec-conflict", repeated(src.SpecConflict, "D.init();", "D.run();", rounds, "D.show();")},
	} {
		prog, plan := planAsBuilt(t, tc.source, fullPlan)
		want := interpSerialDump(t, prog)
		for _, conditional := range []bool{false, true} {
			for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecAuto, rt.SpecForce} {
				for _, workers := range []int{1, 2, 4} {
					label := fmt.Sprintf("%s conditional=%t speculate=%s workers=%d", tc.name, conditional, spec, workers)
					before := runtime.NumGoroutine()
					var out goroutinesAtWrite
					ip := interp.New(prog, &out)
					r := rt.New(ip, plan, workers)
					r.Conditional, r.Speculate = conditional, spec
					if err := r.Run(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if out.peak == 0 || out.peak > before {
						t.Errorf("%s: %d goroutines at the program's print, %d before the run: a pool was started", label, out.peak, before)
					}
					nativegen.DumpInterp(&out.buf, prog, ip)
					if got := out.buf.String(); got != want {
						t.Errorf("%s: output and state differ from the serial walker's:\n got %q\nwant %q", label, got, want)
					}
					if r.Stats != (rt.Stats{RegionsDeclined: rounds}) {
						t.Errorf("%s: stats %+v, want %d regions declined and nothing else", label, r.Stats, rounds)
					}
				}
			}
		}
	}
}

// TestUnboundedRootsStillOpen: every region root of Barnes-Hut, Water
// and the graph traversal is unbounded (recursion, or loops over a field
// or a parameter), so the cutoff declines nothing there: the plan as
// built opens exactly the regions it opens with its estimates cleared.
func TestUnboundedRootsStillOpen(t *testing.T) {
	for _, tc := range []struct{ name, source string }{
		{"barneshut", src.BarnesHut}, {"water", src.Water}, {"graph", src.Graph},
	} {
		var regions [2]int64
		for i, clear := range []bool{false, true} {
			prog, plan := planAsBuilt(t, tc.source, fullPlan)
			if clear {
				clearWork(plan)
			}
			r := rt.New(interp.New(prog, nil), plan, 2)
			if err := r.Run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if r.Stats.RegionsDeclined != 0 {
				t.Errorf("%s (cleared=%t): %d regions declined", tc.name, clear, r.Stats.RegionsDeclined)
			}
			regions[i] = r.Stats.Regions
		}
		if regions[0] == 0 || regions[0] != regions[1] {
			t.Errorf("%s: %d regions on the plan as built, %d with its estimates cleared", tc.name, regions[0], regions[1])
		}
	}
}
