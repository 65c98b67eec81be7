package codegen_test

import (
	"strings"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/frontend/types"
)

// TestCallRuleTable is MethodPlan.Call written out: every context × site
// action × callee {parallel, not, unplanned} × lock {held through, not}.
func TestCallRuleTable(t *testing.T) {
	const (
		ser  = codegen.VersionSerial
		par  = codegen.VersionParallel
		mut  = codegen.VersionMutex
		iter = codegen.VersionIteration
	)
	type call = codegen.SiteCall
	serial := call{Run: ser}
	// parallel: what the site does when the callee has a parallel version
	// and the caller's lock covers its object section only; plain: when the
	// callee has none.
	rows := []struct {
		in              codegen.Version
		act             codegen.SiteAction
		parallel, plain call
	}{
		{par, codegen.ActionInline, serial, serial},
		{par, codegen.ActionHoisted, serial, serial},
		{par, codegen.ActionSpawn, call{Run: par, Spawn: true, Release: true}, call{Run: ser, Spawn: true, Release: true}},
		{par, codegen.ActionSerial, serial, serial},
		{mut, codegen.ActionInline, serial, serial},
		{mut, codegen.ActionHoisted, serial, serial},
		{mut, codegen.ActionSpawn, call{Run: mut, Release: true}, call{Run: ser, Release: true}},
		{mut, codegen.ActionSerial, serial, serial},
		{iter, codegen.ActionInline, serial, serial},
		{iter, codegen.ActionHoisted, call{Run: mut}, serial},
		{iter, codegen.ActionSpawn, call{Run: mut}, serial},
		{iter, codegen.ActionSerial, serial, serial},
		{ser, codegen.ActionInline, serial, serial},
		{ser, codegen.ActionHoisted, serial, serial},
		{ser, codegen.ActionSpawn, serial, serial},
		{ser, codegen.ActionSerial, serial, serial},
	}
	site := &types.CallSite{ID: 7}
	for _, row := range rows {
		for _, held := range []bool{false, true} {
			mp := &codegen.MethodPlan{Site: map[int]codegen.SiteAction{7: row.act}, HoldsLockThrough: held}
			for _, tc := range []struct {
				callee *codegen.MethodPlan
				want   call
			}{
				{&codegen.MethodPlan{Parallel: true}, row.parallel},
				{&codegen.MethodPlan{}, row.plain},
				{nil, row.plain},
			} {
				if held {
					tc.want.Release = false
				}
				if got := mp.Call(row.in, site, tc.callee); got != tc.want {
					t.Errorf("in=%d action=%d callee=%+v held=%t: %+v, want %+v", row.in, row.act, tc.callee, held, got, tc.want)
				}
			}
		}
	}
}

// TestHoistingStaysUnderTheLock: §5.4.2 applies only where running the
// nested operations inline is sound. hoist-escape's outer::go invokes
// only its nested inner, but inner::poke goes on to the acc every outer
// shares: hoisting is refused with the reason commutec prints, go is
// planned like the mixed operation it is in nested-spawn, and acc keeps
// the lock its add needs. An annotation file that hoists over the escape
// is refused, naming the site. On the six shipped applications the rule
// refuses nothing: the operations that held their lock through still do.
func TestHoistingStaysUnderTheLock(t *testing.T) {
	var source string
	for _, fx := range src.DispatchFixtures() {
		if fx.Name == "hoist-escape" {
			source = fx.Source
		}
	}
	sys, err := commute.Load("hoist-escape.mc", source)
	if err != nil {
		t.Fatal(err)
	}
	method := sys.Prog.MethodByFullName
	for _, plan := range []*codegen.Plan{sys.Plan, sys.CondPlan} {
		goPlan := plan.Methods[method("outer::go")]
		if want := "inner::poke invokes acc::add outside the receiver"; goPlan.HoldsLockThrough || goPlan.NoHoist != want {
			t.Errorf("outer::go: holds through = %t, reason %q; want false and %q", goPlan.HoldsLockThrough, goPlan.NoHoist, want)
		}
		for _, cs := range method("outer::go").CallSites {
			if goPlan.Site[cs.ID] != codegen.ActionSpawn {
				t.Errorf("outer::go: site of %s has action %d, want spawn", cs.Callee.FullName(), goPlan.Site[cs.ID])
			}
		}
		for _, name := range []string{"acc", "outer"} {
			if !plan.LockedClasses[sys.Prog.Classes[name]] {
				t.Errorf("class %s lost its lock", name)
			}
		}
		if plan.LockedClasses[sys.Prog.Classes["inner"]] {
			t.Error("class inner keeps a lock: inner::poke writes nothing")
		}
	}

	// The annotation file of the plan as built round-trips; the same file
	// with the hoist put back does not.
	data, err := sys.Plan.AnnotationsJSON()
	if err != nil {
		t.Fatal(err)
	}
	ann, err := codegen.ParseAnnotations(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codegen.ApplyAnnotations(sys.Prog, ann); err != nil {
		t.Errorf("the plan's own annotations are refused: %v", err)
	}
	hoisted := ann.Methods["outer::go"]
	hoisted.HoldsLockThrough, hoisted.Sites = true, []string{"hoisted"}
	ann.Methods["outer::go"] = hoisted
	_, err = codegen.ApplyAnnotations(sys.Prog, ann)
	if err == nil || !strings.Contains(err.Error(), "outer::go") || !strings.Contains(err.Error(), "inner::poke invokes acc::add outside the receiver at ") {
		t.Errorf("annotations that hoist over the escape: error %v, want one naming outer::go and the site in inner::poke", err)
	}

	holders := map[string]int{}
	for _, app := range []string{"barneshut", "water", "graph", "condhash", "specdisjoint", "specconflict"} {
		file, source, _ := src.App(app)
		sys, err := commute.Load(file, source)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*codegen.Plan{sys.Plan, sys.CondPlan} {
			for m, mp := range plan.Methods {
				if mp.NoHoist != "" {
					t.Errorf("%s: hoisting refused on %s: %s", app, m.FullName(), mp.NoHoist)
				}
				if mp.HoldsLockThrough {
					holders[app]++
				}
			}
		}
	}
	// As before the rule: Barnes-Hut's four body operations on nested
	// vectors, in either plan, and nobody else.
	if len(holders) != 1 || holders["barneshut"] != 2*4 {
		t.Errorf("operations holding their lock through: %v, want 8 in barneshut", holders)
	}
}
