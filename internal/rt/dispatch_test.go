package rt_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

// TestDispatchFixturesMatchSerial: the in-region dispatch fixtures
// (src.DispatchFixtures) at 1, 2 and 4 workers under every -conditional ×
// -speculate policy print the serial walker's output and leave its state.
// Two counters say why, whatever the timing: an auxiliary call runs the
// serial version, so the loop inside aux-loop's driver::probe never runs
// as a parallel loop and counter::add keeps its lock from the probe to
// the write; and hoist-escape's outer::go may not hold its lock through —
// inner::poke is spawned and acc::add locks, two acquisitions a node.
// (With the caller's hooks left armed below an inline call the first
// dropped add's lock in the middle of its object section, 65 535 parallel
// loops a run; with poke and add run as plain code under go's lock the
// second took one acquisition a node and raced on the shared acc. Most
// runs at two and four workers printed a wrong sum.) Under the race
// detector, which needs no luck to see either, the trees are cut to depth
// 8 to keep the matrix affordable.
func TestDispatchFixturesMatchSerial(t *testing.T) {
	// Tree nodes, and lock acquisitions a node.
	sizes := map[string][2]int64{"aux-loop": {65535, 1}, "hoist-escape": {16383, 2}, "nested-spawn": {65535, 3}}
	for _, fx := range src.DispatchFixtures() {
		nodes, locks := sizes[fx.Name][0], sizes[fx.Name][1]
		if raceEnabled {
			fx.Source, nodes = fx.AtDepth(8), 511
		}
		prog, plan := planAsBuilt(t, fx.Source, fullPlan)
		want := interpSerialDump(t, prog)
		if !raceEnabled && !strings.HasPrefix(want, fx.Output) {
			t.Fatalf("%s: the serial walker prints %.12q, the fixture says %q", fx.Name, want, fx.Output)
		}
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
						t.Errorf("%s: state diverges from the serial walker\n got: %.40q\nwant: %.40q", label, got, want)
					}
					if r.Stats.Regions != 1 || r.Stats.ParallelLoops != 0 || r.Stats.LockAcquires != locks*nodes {
						t.Errorf("%s: regions=%d loops=%d locks=%d, want 1, 0 and %d",
							label, r.Stats.Regions, r.Stats.ParallelLoops, r.Stats.LockAcquires, locks*nodes)
					}
				}
			}
		}
	}
}
