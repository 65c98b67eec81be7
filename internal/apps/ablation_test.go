package apps_test

import (
	"context"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps"
	"commute/internal/codegen"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/tracer"
)

// TestAblationTracesComputeTheSerialState: a trace times the program it
// ran, so under the plan of every ablation the traced execution must
// leave the state the serial run leaves. Un-suppressing nested loops is
// the one that can go wrong: it runs loops the default plan never does,
// and Water's h2o::interForces carries sfx, sfy and sfz across the
// iterations of its loop for the FBank.add after it — a candidate the
// plan refuses, suppression or no suppression.
func TestAblationTracesComputeTheSerialState(t *testing.T) {
	water, err := apps.Water(27, 1)
	if err != nil {
		t.Fatal(err)
	}
	bh, err := apps.BarnesHut(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sys  *commute.System
	}{{"water", water}, {"barneshut", bh}} {
		var want strings.Builder
		ip, err := tc.sys.RunSerial(nil)
		if err != nil {
			t.Fatal(err)
		}
		nativegen.DumpInterp(&want, tc.sys.Prog, ip)
		for _, opt := range []codegen.Options{{}, {DisableSuppression: true}, {DisableHoisting: true}} {
			plan := codegen.BuildWithOptions(tc.sys.Analysis, opt)
			ip := interp.NewEngine(tc.sys.Prog, nil, interp.EngineWalk)
			if _, err := tracer.Collect(context.Background(), ip, plan); err != nil {
				t.Fatalf("%s %+v: %v", tc.name, opt, err)
			}
			var got strings.Builder
			nativegen.DumpInterp(&got, tc.sys.Prog, ip)
			if got.String() != want.String() {
				w, g := strings.Split(want.String(), "\n"), strings.Split(got.String(), "\n")
				diff := 0
				for i := range w {
					if i >= len(g) || g[i] != w[i] {
						diff++
					}
				}
				t.Errorf("%s %+v: the traced run's state differs from the serial run's in %d of %d dump lines", tc.name, opt, diff, len(w))
			}
		}
	}

	// The §5.2 point stands on the loops that are legal: h2o::potEnergy's
	// nested loop still un-suppresses, interForces' stays serial.
	plan := codegen.BuildWithOptions(water.Analysis, codegen.Options{DisableSuppression: true})
	for _, lp := range plan.Loops {
		switch lp.Name {
		case "h2o::interForces":
			if lp.Parallel || !lp.Nested || lp.Reason != "sfx carried across iterations" {
				t.Errorf("h2o::interForces' loop: parallel %t, nested %t, reason %q", lp.Parallel, lp.Nested, lp.Reason)
			}
		case "h2o::potEnergy":
			if !lp.Parallel || !lp.Nested {
				t.Errorf("h2o::potEnergy's loop: parallel %t, nested %t", lp.Parallel, lp.Nested)
			}
		}
	}
	if plan.LoopsFound != 7 || plan.LoopsSuppressed != 0 || plan.LoopsRefused != 1 {
		t.Errorf("water without suppression: %d found, %d suppressed, %d refused, want 7, 0, 1", plan.LoopsFound, plan.LoopsSuppressed, plan.LoopsRefused)
	}
}
