package rt_test

import (
	"bytes"
	"fmt"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

// TestParallelLoopsMatchSerial: the legality fixtures (src.LoopFixtures)
// under the plan every execution runs, at 1, 2 and 4 workers and every
// -conditional × -speculate policy: output and final state are the
// serial walker's, and the runtime runs a parallel loop exactly where
// the plan has one — a refused candidate's iterations run in order, its
// invocations spawned one by one. carried repeats under the default
// policy, since its wrong answers depended on when helpers joined.
func TestParallelLoopsMatchSerial(t *testing.T) {
	for _, fx := range src.LoopFixtures() {
		prog, plan := planAsBuilt(t, fx.Source, fullPlan)
		want := interpSerialDump(t, prog)
		for _, workers := range []int{1, 2, 4} {
			for _, conditional := range []bool{false, true} {
				for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecAuto, rt.SpecForce} {
					repeats := 1
					if fx.Name == "carried" && workers > 1 && !conditional && spec == rt.SpecOff {
						repeats = 20
					}
					for rep := 0; rep < repeats; rep++ {
						label := fmt.Sprintf("%s workers=%d conditional=%t speculate=%s", fx.Name, workers, conditional, spec)
						var buf bytes.Buffer
						ip := interp.New(prog, &buf)
						r := rt.New(ip, plan, workers)
						r.Conditional, r.Speculate = conditional, spec
						if err := r.Run(); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						nativegen.DumpInterp(&buf, prog, ip)
						if got := buf.String(); got != want {
							t.Fatalf("%s: state diverges from the serial walker\n got: %.200q\nwant: %.200q", label, got, want)
						}
						if r.Stats.Regions != 1 || r.Stats.ParallelLoops != int64(fx.Parallel) {
							t.Fatalf("%s: %d regions, %d parallel loops, want 1 and %d", label, r.Stats.Regions, r.Stats.ParallelLoops, fx.Parallel)
						}
					}
				}
			}
		}
	}
}
