package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The gate's own benchmark file: one workload, one metric in each
// direction, both with the 0.25 bound the real timings carry.
const testBenchmark = `{"workloads": [{"name": "w"}], "end_to_end": [
	{"name": "compile_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
	{"name": "serve_rps", "unit": "1/s", "better": "higher", "bound": 0.25}]}`

// side is one side's runs: a slice of values per metric, run i taking
// the i-th of each, and the failed-operation count of each run (nil:
// none failed). crashed adds a run that died before its result line.
type side struct {
	metrics map[string][]float64
	failed  []int
	crashed bool
}

// steady is n identical runs.
func steady(n int, compileMS, rps float64) side {
	s := side{metrics: map[string][]float64{}}
	for i := 0; i < n; i++ {
		s.metrics["compile_ms_p50"] = append(s.metrics["compile_ms_p50"], compileMS)
		s.metrics["serve_rps"] = append(s.metrics["serve_rps"], rps)
	}
	return s
}

// write lays the side out as scripts/e2e_ab.sh does: dir/w/<i>.out, each
// the output of a run — some rows, then the result line.
func (s side) write(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "w"), 0o755); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, xs := range s.metrics {
		runs = max(runs, len(xs))
	}
	for i := 0; i < runs; i++ {
		var ms []string
		for name, xs := range s.metrics {
			if i < len(xs) {
				ms = append(ms, fmt.Sprintf(`%q: {"value": %g, "unit": "u"}`, name, xs[i]))
			}
		}
		failed := 0
		if s.failed != nil {
			failed = s.failed[i]
		}
		out := fmt.Sprintf("workload w  seed 1  seconds 15  traced false\nops attempted 100  failed %d\n"+
			`{"correct": %v, "attempted": 100, "failed": %d, "metrics": {%s}}`+"\n",
			failed, failed == 0, failed, strings.Join(ms, ", "))
		if err := os.WriteFile(filepath.Join(dir, "w", fmt.Sprintf("%d.out", i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if s.crashed {
		if err := os.WriteFile(filepath.Join(dir, "w", "crashed.out"), []byte("workload w  seed 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiff(t *testing.T) {
	without := func(s side, name string) side {
		delete(s.metrics, name)
		return s
	}
	failing := func(s side, run int) side {
		s.failed = make([]int, len(s.metrics["serve_rps"]))
		s.failed[run] = 1
		return s
	}
	crashing := func(s side) side {
		s.crashed = true
		return s
	}
	// noisy is five parent runs whose quartiles (90, 130) are 40 % of the
	// median apart: wider than the 25 % bound.
	noisy := steady(5, 100, 1000)
	noisy.metrics["compile_ms_p50"] = []float64{80, 90, 100, 130, 140}

	cases := []struct {
		name           string
		parent, change side
		exit           int
		want           []string // each must appear in the output
		wantNot        []string
	}{
		{name: "identical sides pass",
			parent: steady(5, 100, 1000), change: steady(5, 100, 1000),
			exit: 0, want: []string{"benchdiff: ok", "0 unresolved"}},
		{name: "metric missing from the change fails",
			parent: steady(5, 100, 1000), change: without(steady(5, 100, 1000), "serve_rps"),
			exit: 1, want: []string{"serve_rps", "MISSING"}},
		{name: "metric missing from the parent fails",
			parent: without(steady(5, 100, 1000), "compile_ms_p50"), change: steady(5, 100, 1000),
			exit: 1, want: []string{"compile_ms_p50", "MISSING"}},
		{name: "workload missing from one side fails",
			parent: steady(5, 100, 1000), change: side{},
			exit: 1, want: []string{"MISSING: no runs of w"}},
		{name: "higher-is-better metric dropping past its bound fails",
			parent: steady(5, 100, 1000), change: steady(5, 100, 700),
			exit: 1, want: []string{"REGRESSION", "+30.0%"}},
		{name: "higher-is-better metric rising passes",
			parent: steady(5, 100, 1000), change: steady(5, 100, 1400),
			exit: 0, want: []string{"-40.0%"}, wantNot: []string{"REGRESSION"}},
		{name: "lower-is-better metric 30% worse fails",
			parent: steady(5, 100, 1000), change: steady(5, 130, 1000),
			exit: 1, want: []string{"REGRESSION", "+30.0%"}},
		{name: "lower-is-better metric 20% worse passes",
			parent: steady(5, 100, 1000), change: steady(5, 120, 1000),
			exit: 0, want: []string{"+20.0%"}, wantNot: []string{"REGRESSION"}},
		{name: "one failed operation fails whatever the timings",
			parent: steady(5, 100, 1000), change: failing(steady(5, 50, 2000), 3),
			exit: 1, want: []string{"FAILED RUN", "3.out"}, wantNot: []string{"REGRESSION"}},
		{name: "a run without a result line fails the side, it is not a smaller sample",
			parent: steady(5, 100, 1000), change: crashing(steady(5, 100, 1000)),
			exit: 1, want: []string{"crashed.out: no result line"}},
		{name: "parent spread wider than the bound is unresolved, not unchanged",
			parent: noisy, change: steady(5, 100, 1000),
			exit: 0, want: []string{"unresolved (parent spread 40.0%", "1 unresolved"}},
		{name: "every change run better than every parent run resolves a wide spread",
			parent: noisy, change: steady(5, 70, 1000),
			exit: 0, want: []string{"0 unresolved"}, wantNot: []string{"unresolved ("}},
		{name: "a regression past the bound fails even under a wide spread",
			parent: noisy, change: steady(5, 135, 1000),
			exit: 1, want: []string{"REGRESSION"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			bm := filepath.Join(dir, "BENCHMARK.json")
			if err := os.WriteFile(bm, []byte(testBenchmark), 0o644); err != nil {
				t.Fatal(err)
			}
			tc.parent.write(t, filepath.Join(dir, "parent"))
			tc.change.write(t, filepath.Join(dir, "change"))
			var out strings.Builder
			if got := diff(&out, bm, filepath.Join(dir, "parent"), filepath.Join(dir, "change")); got != tc.exit {
				t.Errorf("exit code %d, want %d\n%s", got, tc.exit, out.String())
			}
			for _, s := range tc.want {
				if !strings.Contains(out.String(), s) {
					t.Errorf("output lacks %q\n%s", s, out.String())
				}
			}
			for _, s := range tc.wantNot {
				if strings.Contains(out.String(), s) {
					t.Errorf("output contains %q\n%s", s, out.String())
				}
			}
		})
	}
}
