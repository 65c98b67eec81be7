package rt_test

// The granularity cutoff, on plans as built: a region root whose static
// work bound is under the runtime's entry cost runs its serial version
// (oracle's rows count every declined entry), and a root with no bound
// opens its region as it always did. (The boundary itself is pinned
// beside the constant, in cutoff_internal_test.go.)

import (
	"testing"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/rt"
)

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
			sys := oracle.Load(t, tc.name+".mc", tc.source)
			if clear {
				oracle.ClearWork(sys)
			}
			r := rt.New(interp.New(sys.Code(), nil), sys.Plan, 2)
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
