// Benchdiff compares two BENCH_<rev>.json reports produced by
// `commutebench -json` and fails when the gated suites regress beyond
// a threshold. By default four name prefixes gate: "micro-"
// (single-threaded interpreter tight loops), "analysis-" (cold-path
// analysis: AnalyzeAll, deep simplification, pair testing), "serve-"
// (the daemon's cache-hit serving path under load), and "spec-" (the
// speculation workloads on the monitored compiled engine and the journaled
// native backend, commit-heavy and abort-heavy). The application and parallel-runtime
// results are printed for context but carry too much scheduler and
// machine noise to fail CI on. -gate narrows or widens the gated set
// with a regexp over benchmark names, so a CI step can hold one suite
// to a tighter threshold (e.g. compiled-engine micros at 5%).
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 1.10 old.json new.json
//	benchdiff -gate '^micro-.*-compiled' -threshold 1.05 old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"commute/internal/bench"
)

func load(path string) (*bench.PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func main() {
	threshold := flag.Float64("threshold", 1.25, "fail when a gated benchmark's ns/op grows by more than this factor")
	gate := flag.String("gate", "^(micro-|analysis-|serve-|spec-)", "regexp over benchmark names selecting which results gate the exit status")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 1.25] [-gate regexp] old.json new.json")
		os.Exit(2)
	}
	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -gate regexp: %v\n", err)
		os.Exit(2)
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	oldBy := make(map[string]bench.PerfResult, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}

	fmt.Printf("%-30s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	failed := false
	for _, nr := range newRep.Results {
		or, ok := oldBy[nr.Name]
		if !ok || or.NsPerOp == 0 {
			fmt.Printf("%-30s %14s %14d %8s\n", nr.Name, "-", nr.NsPerOp, "new")
			continue
		}
		ratio := float64(nr.NsPerOp) / float64(or.NsPerOp)
		mark := ""
		if gateRe.MatchString(nr.Name) && ratio > *threshold {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Printf("%-30s %14d %14d %7.2fx%s\n", nr.Name, or.NsPerOp, nr.NsPerOp, ratio, mark)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: gated suite (%s) regressed beyond %.2fx (%s -> %s)\n",
			*gate, *threshold, oldRep.Rev, newRep.Rev)
		os.Exit(1)
	}
}
