package codegen_test

import (
	"testing"

	"commute"
	"commute/internal/apps/src"
)

// TestRegionRootReturnsNoValue: Plan.RegionRoot is "has a parallel
// version, generates concurrency, returns nothing". The last clause takes
// the root away in each region-entry fixture — a proven, a guarded and a
// speculative extent whose root's value main uses — and in none of the
// shipped applications, all 18 of whose roots are void. (Water's
// h2o::interForces, potEnergy and momenta are no roots: their only
// concurrency was the spawn of an accumulation the plan replicates.)
func TestRegionRootReturnsNoValue(t *testing.T) {
	// parallel is RegionRoot without the clause.
	parallel := func(sys *commute.System, full string) bool {
		m := sys.Prog.MethodByFullName(full)
		return sys.Plan.Methods[m].Parallel && sys.Plan.GeneratesConcurrency(m)
	}
	for _, fx := range src.EntryFixtures() {
		sys, err := commute.Load(fx.Name+".mc", fx.Source)
		if err != nil {
			t.Fatal(err)
		}
		if !parallel(sys, fx.Root) {
			t.Errorf("%s: %s has no parallel version that generates concurrency: the fixture tests nothing", fx.Name, fx.Root)
		}
		if sys.Plan.RegionRoot(sys.Prog.MethodByFullName(fx.Root)) {
			t.Errorf("%s: %s returns a value and is a region root", fx.Name, fx.Root)
		}
	}
	roots := 0
	for _, app := range []string{"barneshut", "water", "graph", "condhash", "specdisjoint", "specconflict"} {
		file, source, _ := src.App(app)
		sys, err := commute.Load(file, source)
		if err != nil {
			t.Fatal(err)
		}
		for m := range sys.Plan.Methods {
			was := parallel(sys, m.FullName())
			if sys.Plan.RegionRoot(m) != was {
				t.Errorf("%s: %s stopped being a region root", app, m.FullName())
			}
			if was {
				roots++
			}
		}
	}
	if roots != 18 {
		t.Errorf("%d region roots in the shipped applications, want 18", roots)
	}
}
