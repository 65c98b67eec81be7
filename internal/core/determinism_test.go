package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"commute/internal/apps"
	"commute/internal/core"
	"commute/internal/frontend/types"
	"commute/internal/oracle"
)

// analyzeAt runs a fresh cold analysis of prog with the given driver
// parallelism.
func analyzeAt(prog *types.Program, workers int) []*core.MethodReport {
	a := core.New(prog)
	a.Workers = workers
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
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: report %d (%s) differs from the serial driver's\nserial:   %+v\nparallel: %+v",
				label, i, want[i].Method.FullName(), want[i], got[i])
		}
	}
}

// TestParallelDriverDeterministic: the parallel analysis driver is a
// pure latency optimization — for the real applications, every worker
// count produces reports deeply identical to the serial driver's
// (content, ordering, pair order, and first-failure Reason strings).
func TestParallelDriverDeterministic(t *testing.T) {
	systems := map[string]*types.Program{}
	if sys, err := apps.Graph(64); err == nil {
		systems["graph"] = sys.Prog
	} else {
		t.Fatal(err)
	}
	if sys, err := apps.BarnesHut(32, 1); err == nil {
		systems["barneshut"] = sys.Prog
	} else {
		t.Fatal(err)
	}
	if sys, err := apps.Water(8, 1); err == nil {
		systems["water"] = sys.Prog
	} else {
		t.Fatal(err)
	}

	for name, prog := range systems {
		want := analyzeAt(prog, 1)
		for _, w := range []int{2, 4, 8} {
			requireSameReports(t, fmt.Sprintf("%s workers=%d", name, w), want, analyzeAt(prog, w))
		}
	}
}

// TestParallelDriverDeterministicRandom: the serial/parallel
// differential over the generator's Analysis programs, including methods the
// analysis must reject (non-commuting recurrences, I/O) so the Reason
// strings and pair orderings are compared on the failure paths too.
func TestParallelDriverDeterministicRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 8; trial++ {
		prog := mustCheck(t, "random.mc", oracle.Analysis(r))
		want := analyzeAt(prog, 1)
		var sawFailure bool
		for _, rep := range want {
			if !rep.Parallel && rep.Reason != "" {
				sawFailure = true
			}
		}
		if !sawFailure {
			t.Fatalf("trial %d: generator produced no failing method; the Reason determinism check is vacuous", trial)
		}
		for _, w := range []int{2, 4, 8} {
			requireSameReports(t, fmt.Sprintf("trial %d workers=%d", trial, w), want, analyzeAt(prog, w))
		}
	}
}
