package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/analysis/symbolic"
	"commute/internal/analysis/symbolic/symtest"
	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/oracle"
)

func mustCheck(t *testing.T, name, source string) *types.Program {
	t.Helper()
	file, err := parser.Parse(name, source)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", name, err, source)
	}
	prog, err := types.Check(file)
	if err != nil {
		t.Fatalf("%s: check: %v\n%s", name, err, source)
	}
	return prog
}

// memoPrograms is the corpus of the memo differential: the shipped
// applications and two families of the generator's programs.
func memoPrograms(t *testing.T) map[string]*types.Program {
	progs := map[string]*types.Program{
		"graph":         mustCheck(t, "graph", src.Graph),
		"barneshut":     mustCheck(t, "barneshut", src.BarnesHut),
		"water":         mustCheck(t, "water", src.Water),
		"condhash":      mustCheck(t, "condhash", src.CondHashBase+src.CondHashMain(1, 2)),
		"spec-disjoint": mustCheck(t, "spec-disjoint", src.SpecDisjoint),
		"spec-conflict": mustCheck(t, "spec-conflict", src.SpecConflict),
	}
	r := rand.New(rand.NewSource(20261001))
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("mixed-%d", i)
		progs[name] = mustCheck(t, name, oracle.Mixed(r))
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("counters-%d", i)
		progs[name] = mustCheck(t, name, oracle.Analysis(r))
	}
	return progs
}

// TestMemoMatchesFreshExecution: the analysis memo only saves work.
// Every pair verdict equals one computed by fresh executions under
// that extent's own environment, and every report equals the one an
// analysis produces that analyzed nothing else (so no entry in it was
// recorded under another extent's environment) — in every call order
// and with either extension disabled.
func TestMemoMatchesFreshExecution(t *testing.T) {
	type option struct {
		name string
		set  func(*core.Analysis)
	}
	options := []option{
		{"default", func(*core.Analysis) {}},
		{"no-aux", func(a *core.Analysis) { a.DisableAuxiliary = true }},
		{"no-ec", func(a *core.Analysis) { a.DisableExtentConstants = true }},
	}
	reused, split := false, false
	for name, prog := range memoPrograms(t) {
		for _, opt := range options {
			eff := effects.NewAnalyzer(prog)
			var oracle []*core.MethodReport
			for _, order := range callOrders {
				label := fmt.Sprintf("%s/%s/order=%s", name, opt.name, order)
				a := core.New(prog)
				opt.set(a)
				read, _ := a.MemoCounts()
				reports := reportsInOrder(a, order)

				if oracle == nil {
					symbolicPairs := 0
					type pair struct{ m1, m2 *types.Method }
					distinct := map[pair]bool{}
					for _, r := range reports {
						for _, pr := range r.Pairs {
							if !pr.Independent {
								distinct[pair{pr.M1, pr.M2}] = true
							}
						}
						solo := core.New(prog)
						solo.Eff = eff // the effects memos are not under test
						opt.set(solo)
						oracle = append(oracle, solo.IsParallel(r.Method))
						symbolicPairs += r.SymbolicPairs
					}
					_, _, entries := read()
					reused = reused || entries < symbolicPairs
					split = split || entries > len(distinct)
				}
				requireSameReports(t, label, oracle, reports)

				for _, r := range reports {
					checkPairsAgainstFresh(t, label, prog, r, opt.name == "no-ec")
				}
			}
		}
	}
	if !reused {
		t.Error("no verdict was ever reused: the differential is vacuous")
	}
	if !split {
		t.Error("no pair ever had two verdicts: no entry was ever refused for its answers")
	}
}

// checkPairsAgainstFresh recomputes each symbolically tested pair of r
// under a new environment of its own — nothing memoized before it.
func checkPairsAgainstFresh(t *testing.T, label string, prog *types.Program, r *core.MethodReport, noEC bool) {
	t.Helper()
	if r.Ext == nil {
		return
	}
	ec := r.EC
	if noEC {
		ec = effects.NewSet()
	}
	aux := make(map[int]bool, len(r.Ext.Aux))
	for _, c := range r.Ext.Aux {
		aux[c.ID] = true
	}
	for _, pr := range r.Pairs {
		if pr.Independent {
			continue
		}
		fresh := core.CommuteSymbolic(pr.M1, pr.M2, symbolic.NewEnv(prog, ec, aux))
		if !symtest.DeepEqual(pr, fresh) {
			t.Fatalf("%s: extent %s, pair (%s, %s): memoized verdict differs from a fresh execution\nmemo:  %+v\nfresh: %+v",
				label, r.Method.FullName(), pr.M1.FullName(), pr.M2.FullName(), pr, fresh)
		}
	}
}

// TestBodyExecutionCount pins what the memo buys on the shipped
// applications: one first run per (method, tag) and distinct set of
// answers, and per distinct pair verdict two more executions — the
// second body of either order — where the driver without it ran six
// per symbolically tested pair. A verdict refused because a first run
// was unanalyzable executes nothing further.
func TestBodyExecutionCount(t *testing.T) {
	for name, source := range map[string]string{
		"graph": src.Graph, "barneshut": src.BarnesHut, "water": src.Water,
	} {
		a := core.New(mustCheck(t, name, source))
		read, _ := a.MemoCounts()
		symbolicPairs := 0
		type pair struct{ m1, m2 *types.Method }
		unanalyzable := map[pair]bool{}
		for _, r := range a.AnalyzeAll() {
			symbolicPairs += r.SymbolicPairs
			for _, pr := range r.Pairs {
				if strings.HasPrefix(pr.Reason, "unanalyzable: ") {
					unanalyzable[pair{pr.M1, pr.M2}] = true
				}
			}
		}
		executions, firstRuns, verdicts := read()
		if want := firstRuns + 2*(verdicts-len(unanalyzable)); executions != want {
			t.Errorf("%s: %d body executions, want %d first runs + 2 × (%d verdicts − %d unanalyzable) = %d",
				name, executions, firstRuns, verdicts, len(unanalyzable), want)
		}
		if executions >= 6*symbolicPairs {
			t.Errorf("%s: %d body executions for %d symbolic pairs: no fewer than six per pair", name, executions, symbolicPairs)
		}
		if _, ok := a.MemoCounts(); ok {
			t.Errorf("%s: the memo outlived the last report", name)
		}
	}
}
