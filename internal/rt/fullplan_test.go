package rt_test

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/oracle"
)

// TestFullPlanExtendsProvenPlan: every parallel run, and every view,
// reads the plan that carries all three tiers (commute.System.Plan),
// also when both run-time policies are off; the paper's tables read its
// proven configuration (codegen.Build, apps.PaperPlan). This is the
// stated relation between the two, the same computation only if the
// full plan leaves the proven part alone: over the shipped applications
// and draws of every generator family, every method the proven plan parallelizes has the same lock,
// hoisting and call-site decisions in the full plan and stays unguarded
// and unspeculated, and every loop the proven plan found is planned the
// same way. It is what makes the serial-equivalence oracle's one plan
// enough. The permitted differences are the full plan's contention
// optimizations (codegen.Options.Contention): it may answer replica at a
// site where the proven plan spawns (or, in a mutex version, runs the
// mutex version), and a method whose only concurrency such a site was
// then opens no region; and it may coarsen a method, whose mutex version
// then holds its receiver lock (NeedsLock) through its serial version.
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
	for i := 0; i < 40; i++ {
		sources[fmt.Sprintf("draw-%d", i)] = oracle.Draw(r)
	}

	proven := 0
	for name, source := range sources {
		sys := oracle.Load(t, name+".mc", source)
		plan, full := codegen.Build(sys.Analysis), sys.Plan
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
			if mp.Coarse || fp.NeedsLock != mp.NeedsLock && !(fp.Coarse && fp.NeedsLock) || fp.HoldsLockThrough != mp.HoldsLockThrough || fp.Replicable != mp.Replicable {
				t.Errorf("%s: %s locks differ: proven lock=%t hoist=%t replicable=%t coarse=%t, full lock=%t hoist=%t replicable=%t coarse=%t",
					name, m.FullName(), mp.NeedsLock, mp.HoldsLockThrough, mp.Replicable, mp.Coarse, fp.NeedsLock, fp.HoldsLockThrough, fp.Replicable, fp.Coarse)
			}
			replicated := false
			if !maps.EqualFunc(fp.Site, mp.Site, func(f, p codegen.SiteAction) bool {
				replicated = replicated || f == codegen.ActionReplica
				return f == p || f == codegen.ActionReplica && p == codegen.ActionSpawn
			}) {
				t.Errorf("%s: %s site actions differ: proven %v, full %v", name, m.FullName(), mp.Site, fp.Site)
			}
			if full.GeneratesConcurrency(m) != plan.GeneratesConcurrency(m) && !replicated {
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
