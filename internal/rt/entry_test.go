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

// TestValueRootsMatchSerial: the region-entry fixtures (src.EntryFixtures)
// — a proven, a guarded and a speculative extent whose root returns a
// value main prints, each above the entry cost — at 1, 2 and 4 workers
// under every -conditional × -speculate policy. A method that returns a
// value is not a region root, so each call of it from main is the serial
// version, result included: output and final state are the serial
// walker's and no region counter moves. (Entering the root as a region
// printed NULL for the value, or failed on arithmetic over it.)
func TestValueRootsMatchSerial(t *testing.T) {
	for _, fx := range src.EntryFixtures() {
		prog, plan := planAsBuilt(t, fx.Source, fullPlan)
		want := interpSerialDump(t, prog)
		for _, workers := range []int{1, 2, 4} {
			for _, conditional := range []bool{false, true} {
				for _, spec := range []rt.SpecMode{rt.SpecOff, rt.SpecAuto, rt.SpecForce} {
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
					if r.Stats != (rt.Stats{}) {
						t.Fatalf("%s: stats %+v, want none", label, r.Stats)
					}
				}
			}
		}
	}
}
