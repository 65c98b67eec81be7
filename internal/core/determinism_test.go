package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"commute/internal/analysis/symbolic/symtest"
	"commute/internal/core"
	"commute/internal/frontend/types"
	"commute/internal/oracle"
)

// callOrders are the orders in which the order tests ask a fresh
// analysis for its method reports before calling AnalyzeAll: AnalyzeAll's
// own method-ID order, reverse ID order, and a seeded shuffle. Each
// fills the analysis memo in a different order, so a report that
// depended on what the memo held when it was computed would differ.
var callOrders = []string{"id", "reverse", "shuffle"}

// reportsInOrder asks a for the report of every defined method in the
// named order, then returns AnalyzeAll's reports.
func reportsInOrder(a *core.Analysis, order string) []*core.MethodReport {
	var methods []*types.Method
	for _, m := range a.Prog.Methods {
		if m.Def != nil {
			methods = append(methods, m)
		}
	}
	switch order {
	case "id":
		methods = nil
	case "reverse":
		slices.Reverse(methods)
	case "shuffle":
		r := rand.New(rand.NewSource(20261017))
		r.Shuffle(len(methods), func(i, j int) { methods[i], methods[j] = methods[j], methods[i] })
	default:
		panic("unknown call order " + order)
	}
	for _, m := range methods {
		a.IsParallel(m)
	}
	return a.AnalyzeAll()
}

// requireSameReports asserts two report sets are deeply identical —
// same order, same pair ordering, same counters, same Reason strings.
func requireSameReports(t *testing.T, label string, want, got []*core.MethodReport) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !symtest.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: report %d (%s) differs from the ID-order analysis's\nwant: %+v\ngot:  %+v",
				label, i, want[i].Method.FullName(), want[i], got[i])
		}
	}
}

// requireOrderIndependent analyzes prog once per call order, each on a
// fresh analysis, and requires every order's reports to equal the
// ID order's. It returns those.
func requireOrderIndependent(t *testing.T, label string, prog *types.Program) []*core.MethodReport {
	t.Helper()
	want := reportsInOrder(core.New(prog), callOrders[0])
	for _, order := range callOrders[1:] {
		requireSameReports(t, fmt.Sprintf("%s order=%s", label, order), want, reportsInOrder(core.New(prog), order))
	}
	return want
}

// TestReportsIndependentOfCallOrder: over the memo differential's
// corpus, the reports do not depend on the order in which methods are
// analyzed (content, ordering, pair order, and first-failure Reason
// strings). Its generated programs have pairs with two verdicts, so a
// memo that reused a verdict recorded under another extent's
// environment would make some report depend on which extent came first.
func TestReportsIndependentOfCallOrder(t *testing.T) {
	for name, prog := range memoPrograms(t) {
		requireOrderIndependent(t, name, prog)
	}
}

// TestReportsIndependentOfCallOrderRandom: the same differential over
// the generator's Analysis programs, including methods the analysis must
// reject (non-commuting recurrences, I/O) so the Reason strings and pair
// orderings are compared on the failure paths too.
func TestReportsIndependentOfCallOrderRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 8; trial++ {
		prog := mustCheck(t, "random.mc", oracle.Analysis(r))
		want := requireOrderIndependent(t, fmt.Sprintf("trial %d", trial), prog)
		var sawFailure bool
		for _, rep := range want {
			if !rep.Parallel && rep.Reason != "" {
				sawFailure = true
			}
		}
		if !sawFailure {
			t.Fatalf("trial %d: generator produced no failing method; the Reason determinism check is vacuous", trial)
		}
	}
}
