package rt_test

import (
	"math/rand"
	"testing"

	"commute/internal/oracle"
)

// TestRandomCommutingPrograms: over the full loop shape × step × reach
// cross of the generator's counter programs, twice (the second time with
// a value-returning pass after the loop), the plan makes driver::runAll a
// region root, driver::again none, runs the update loop in parallel
// exactly when its shape is legal, and never lets relay::send hold its
// lock through port::push, which leaves for a shared counter. That the
// runs then agree with the serial walker is oracle's commuting rows.
func TestRandomCommutingPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		c := oracle.DrawCounters(r)
		c.Loop, c.Step, c.Reach, c.Valued = oracle.LoopShapes[trial%len(oracle.LoopShapes)], 1+trial/5%3, oracle.Reach(trial%int(oracle.Reaches)), trial >= 15
		sys := oracle.Load(t, "counters.mc", c.Source(r))
		prog, plan := sys.Prog, sys.Plan

		runAll := prog.MethodByFullName("driver::runAll")
		if !plan.RegionRoot(runAll) {
			t.Fatalf("trial %d (%s): driver::runAll is no region root", trial, c.Loop.Name)
		}
		if again := prog.MethodByFullName("driver::again"); again != nil && (plan.RegionRoot(again) || !plan.GeneratesConcurrency(again)) {
			t.Fatalf("trial %d (%s): driver::again is a region root, or no reason to be one but its result", trial, c.Loop.Name)
		}
		var parallelLoop bool
		for _, lp := range plan.Loops {
			if lp.Method == runAll && lp.Parallel {
				parallelLoop = true
			}
		}
		if parallelLoop != c.Loop.Legal {
			t.Fatalf("trial %d (%s): update loop parallel = %t, want %t", trial, c.Loop.Name, parallelLoop, c.Loop.Legal)
		}
		if send := prog.MethodByFullName("relay::send"); send != nil && (plan.Methods[send].HoldsLockThrough || plan.Methods[send].NoHoist == "") {
			t.Fatalf("trial %d: relay::send holds its lock through port::push, which leaves for a shared counter", trial)
		}
	}
}
