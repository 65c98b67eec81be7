package rt_test

import (
	"maps"
	"math/rand"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// TestFullPlanExtendsProvenPlan: every parallel run executes the plan
// that carries all three tiers (commute.System.CondPlan), also when both
// run-time policies are off. That is the same computation as running the
// paper's proven plan only if the full plan leaves the proven part
// alone: over the shipped applications and this package's generated
// programs, every method the proven plan parallelizes has the same lock,
// hoisting and call-site decisions in the full plan and stays unguarded
// and unspeculated, and every loop the proven plan found is planned the
// same way.
func TestFullPlanExtendsProvenPlan(t *testing.T) {
	sources := map[string]string{
		"barneshut":    src.BarnesHut,
		"water":        src.Water,
		"graph":        src.Graph,
		"specdisjoint": src.SpecDisjoint,
		"specconflict": src.SpecConflict,
		"condhash0":    src.CondHashBase + src.CondHashMain(0, 6),
		"condhash3":    src.CondHashBase + src.CondHashMain(3, 6),
		"loop-app":     loopApp,
		"proven-steps": provenSteps,
	}
	r := rand.New(rand.NewSource(20240914))
	for trial := 0; trial < 8; trial++ {
		for name, source := range map[string]string{
			"commuting":   genCommutingProgram(r, 2+r.Intn(6), 8+r.Intn(40)),
			"rejected":    genRejectedProgram(r, 2+r.Intn(6), 8+r.Intn(40)),
			"violating":   genViolatingProgram(r, 2+r.Intn(5)),
			"conditional": genConditionalProgram(r, 2+r.Intn(6), 8+r.Intn(40), r.Intn(2)),
		} {
			sources[name+"-"+string(rune('a'+trial))] = source
		}
	}

	proven := 0
	for name, source := range sources {
		f, err := parser.Parse(name+".mc", source)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatalf("%s: check: %v", name, err)
		}
		an := core.New(prog)
		plan := codegen.Build(an)
		full := codegen.BuildWithOptions(an, codegen.Options{ConditionalGuards: true, SpeculateRejected: true})

		for m, mp := range plan.Methods {
			if !mp.Parallel {
				continue
			}
			proven++
			fp := full.Methods[m]
			if fp == nil || !fp.Parallel || fp.Conditional || fp.Speculative {
				t.Errorf("%s: proven method %s is %+v in the full plan", name, m.FullName(), fp)
				continue
			}
			if fp.NeedsLock != mp.NeedsLock || fp.HoldsLockThrough != mp.HoldsLockThrough || fp.Replicable != mp.Replicable {
				t.Errorf("%s: %s locks differ: proven lock=%t hoist=%t replicable=%t, full lock=%t hoist=%t replicable=%t",
					name, m.FullName(), mp.NeedsLock, mp.HoldsLockThrough, mp.Replicable, fp.NeedsLock, fp.HoldsLockThrough, fp.Replicable)
			}
			if !maps.Equal(fp.Site, mp.Site) {
				t.Errorf("%s: %s site actions differ: proven %v, full %v", name, m.FullName(), mp.Site, fp.Site)
			}
			if full.GeneratesConcurrency(m) != plan.GeneratesConcurrency(m) {
				t.Errorf("%s: %s opens a region under one plan only", name, m.FullName())
			}
		}
		for fs, lp := range plan.Loops {
			fl := full.Loops[fs]
			if fl == nil || fl.Method != lp.Method || fl.Parallel != lp.Parallel || fl.Nested != lp.Nested {
				t.Errorf("%s: loop in %s at %s: proven %+v, full %+v", name, lp.Name, fs.Pos(), lp, fl)
			}
		}
	}
	if proven == 0 {
		t.Fatal("no proven method in the whole corpus")
	}
}
