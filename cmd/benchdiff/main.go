// Benchdiff judges a change against its parent from runs of the
// repository's benchmark, e2ebench. Each of its two arguments is a
// directory with one sub-directory per workload of BENCHMARK.json, every
// file in which is the standard output of one
// `bash e2ebench/run.sh --workload W …` run; the last line of a run is
// its JSON result. scripts/e2e_ab.sh produces both directories.
//
// For every workload and end-to-end metric it prints both sides'
// quartiles and medians, and it exits 1 when
//
//   - the change's median is worse than the parent's by more than the
//     metric's bound in BENCHMARK.json, in the metric's better direction;
//   - a run reports a failed operation, reports incorrect output, or left
//     no result line;
//   - a workload or a metric is missing on either side.
//
// A metric whose parent runs spread (between their quartiles) wider than
// its bound is printed as "unresolved", not as unchanged — unless every
// run of the change reads better than every run of the parent — and is
// counted in the last line: rerun with more pairs before relying on it.
//
// Usage, from the root of the module (BENCHMARK.json is read from the
// working directory):
//
//	benchdiff parent-dir change-dir
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmark is the part of BENCHMARK.json the gate reads: the workloads,
// the end-to-end metrics, their better direction and their bounds live
// there and nowhere else.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is the result line of one e2ebench run.
type run struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff parent-dir change-dir")
		os.Exit(2)
	}
	os.Exit(diff(os.Stdout, "BENCHMARK.json", os.Args[1], os.Args[2]))
}

// diff prints the comparison and returns the exit code.
func diff(w io.Writer, benchmarkFile, parentDir, changeDir string) int {
	var bm benchmark
	data, err := os.ReadFile(benchmarkFile)
	if err == nil {
		err = json.Unmarshal(data, &bm)
	}
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 1
	}
	failures, unresolved := 0, 0
	for _, wl := range bm.Workloads {
		parent, pbad := readRuns(w, filepath.Join(parentDir, wl.Name))
		change, cbad := readRuns(w, filepath.Join(changeDir, wl.Name))
		failures += pbad + cbad
		fmt.Fprintf(w, "workload %s: parent %d runs, change %d runs\n", wl.Name, len(parent), len(change))
		if len(parent) == 0 || len(change) == 0 {
			fmt.Fprintf(w, "  MISSING: no runs of %s on one side\n", wl.Name)
			failures++
			continue
		}
		fmt.Fprintf(w, "  %-20s %-6s %-6s %5s  %-36s %-36s %8s  %s\n", "metric", "unit", "better", "bound",
			"parent q1 / median / q3", "change q1 / median / q3", "worse by", "verdict")
		for _, m := range bm.EndToEnd {
			p, pok := series(parent, m.Name)
			c, cok := series(change, m.Name)
			if !pok || !cok {
				fmt.Fprintf(w, "  %-20s MISSING from a run's result line\n", m.Name)
				failures++
				continue
			}
			worse := worsening(quartile(p, 2), quartile(c, 2), m.Better)
			spread := (quartile(p, 3) - quartile(p, 1)) / quartile(p, 2)
			verdict := "ok"
			switch {
			case !(worse <= m.Bound): // written so that a NaN fails
				verdict = "REGRESSION"
				failures++
			case spread > m.Bound && !allBetter(p, c, m.Better):
				verdict = fmt.Sprintf("unresolved (parent spread %.1f%% exceeds the bound)", 100*spread)
				unresolved++
			}
			fmt.Fprintf(w, "  %-20s %-6s %-6s %4.0f%%  %-36s %-36s %+7.1f%%  %s\n", m.Name, m.Unit, m.Better, 100*m.Bound,
				quartiles(p), quartiles(c), 100*worse, verdict)
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "benchdiff: FAIL: %d regressed, failed or missing; %d unresolved\n", failures, unresolved)
		return 1
	}
	fmt.Fprintf(w, "benchdiff: ok: every metric within its bound on every workload; %d unresolved\n", unresolved)
	return 0
}

// readRuns parses every run recorded in dir and counts the ones that
// cannot pass: no result line, a failed operation, incorrect output. A
// directory that is not there holds no runs.
func readRuns(w io.Writer, dir string) (runs []run, bad int) {
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, f := range files {
		out, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(w, "FAILED RUN %s: %v\n", f, err)
			bad++
			continue
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r run
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Metrics == nil {
			fmt.Fprintf(w, "FAILED RUN %s: no result line\n", f)
			bad++
			continue
		}
		if r.Failed > 0 || !r.Correct {
			fmt.Fprintf(w, "FAILED RUN %s: failed %d, correct %v\n", f, r.Failed, r.Correct)
			bad++
		}
		runs = append(runs, r)
	}
	return runs, bad
}

// series is one metric over a side's runs, ascending; ok is false when
// any run lacks it.
func series(runs []run, name string) (asc []float64, ok bool) {
	for _, r := range runs {
		v, has := r.Metrics[name]
		if !has {
			return nil, false
		}
		asc = append(asc, v.Value)
	}
	sort.Float64s(asc)
	return asc, true
}

// quartile is the k-th quartile of an ascending series by the
// nearest-rank rule e2ebench uses: always an observed value.
func quartile(asc []float64, k int) float64 {
	return asc[int(math.Ceil(float64(k)/4*float64(len(asc))))-1]
}

// quartiles renders q1 / median / q3 to six significant digits, byte
// counts in full.
func quartiles(asc []float64) string {
	var qs [3]string
	for k := range qs {
		if v := quartile(asc, k+1); v >= 1e6 {
			qs[k] = fmt.Sprintf("%.0f", v)
		} else {
			qs[k] = fmt.Sprintf("%.6g", v)
		}
	}
	return strings.Join(qs[:], " / ")
}

// worsening is how much worse b is than a, as a share of a.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of the change reads better than
// every run of the parent.
func allBetter(parent, change []float64, better string) bool {
	if better == "higher" {
		return change[0] > parent[len(parent)-1]
	}
	return change[len(change)-1] < parent[0]
}
