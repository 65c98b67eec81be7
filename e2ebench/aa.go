package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// bounds live there and nowhere else.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// exactPrefixes name the traced-run counts that must repeat exactly
// between two runs of one build: they are decided by the analysis and
// the program, not by timing. (Chunk, steal and cache counters depend
// on scheduling and are not in the list.)
var exactPrefixes = []string{
	"frontend.source_bytes", "frontend.ast_nodes", "transform.rewrites_n", "effects.methods_n",
	"extent.size_sum", "core.", "cond.residuals_n", "codegen.emit_source_bytes",
	"rt.regions_n", "rt.loops_n", "rt.tasks_n", "rt.lock_acquires_n", "rt.guard_", "rt.spec_",
	"native.guard_parallel_n", "native.spec_",
}

func mustRepeat(name, unit string) bool {
	if unit != "count" && unit != "bytes" {
		return false
	}
	for _, p := range exactPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// worsening is how much worse b is than a, as a share of a.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRuns is how many runs each side of the untraced self-check makes;
// the sides alternate and their medians are compared, as the driver
// compares a parent and a change.
const aaRuns = 3

// childRun runs the workload once in a fresh process (fresh heap, fresh
// high-water mark, fresh intern table — as the driver's runs are) and
// returns the metrics of its result line.
func childRun(cfg runConfig) (map[string]float64, int, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.wl.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace)
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r struct {
		Failed  int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
		return nil, 0, fmt.Errorf("run produced no result line (%v): %w", err, jerr)
	}
	m := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		m[k] = v.Value
	}
	return m, r.Failed, nil
}

// selfCheck measures identical code against itself. Untraced, two sides
// of aaRuns alternating runs each: the medians of every end-to-end
// metric must agree within its bound (in either direction: nothing
// changed, so any gap is noise). Traced, one run a side: the
// exact-count metrics must repeat exactly. It returns the exit code.
func selfCheck(cfg runConfig) int {
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		fatal(err)
	}
	n := aaRuns
	if cfg.traced {
		n = 1
	}
	var sides [2][]map[string]float64
	bad := 0
	for i := 0; i < 2*n; i++ {
		m, failed, err := childRun(cfg)
		if err != nil {
			fatal(err)
		}
		bad += failed
		sides[i%2] = append(sides[i%2], m)
	}
	med := func(side []map[string]float64, name string) float64 {
		var xs []float64
		for _, m := range side {
			xs = append(xs, m[name])
		}
		return median(xs)
	}
	fmt.Printf("A/A %s  seed %d  seconds %d  traced %v  %d alternating runs a side, medians\n", cfg.wl.name, cfg.seed, cfg.seconds, cfg.traced, n)
	if cfg.traced {
		for _, d := range bf.PerLayer {
			va, vb := med(sides[0], d.Name), med(sides[1], d.Name)
			verdict := ""
			if mustRepeat(d.Name, d.Unit) {
				verdict = "repeats"
				if va != vb {
					verdict = "DIFFERS"
					bad++
				}
			}
			fmt.Printf("%-28s %14.6g %14.6g %-6s %s\n", d.Name, va, vb, d.Unit, verdict)
		}
	} else {
		for _, d := range bf.EndToEnd {
			va, vb := med(sides[0], d.Name), med(sides[1], d.Name)
			gap := math.Abs(worsening(va, vb, d.Better))
			verdict := "ok"
			if !(gap <= d.Bound) {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-22s %14.6g %14.6g %-6s gap %6.2f%%  bound %5.1f%%  %s\n", d.Name, va, vb, d.Unit, 100*gap, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
