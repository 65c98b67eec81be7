// Commuterun executes a mini-C++ program: serially (the original
// semantics), in parallel on the goroutine runtime using the
// automatically generated parallel code, or on the simulated
// multiprocessor across a range of processor counts.
//
// Usage:
//
//	commuterun -mode serial   file.mc
//	commuterun -mode parallel -workers 8 file.mc
//	commuterun -mode parallel -timeout 10s -maxsteps 50000000 file.mc
//	commuterun -mode parallel -conditional on -app condhash
//	commuterun -mode simulate -procs 1,2,4,8,16,32 -timeout 30s -app water
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/nativegen"
	"commute/internal/rt"
	"commute/internal/server/api"
)

// modeConflict names the flag that asks for what the chosen mode does
// not do: the serial runner and the trace-driven simulator have no effect
// monitor, evaluate no guards and keep no step budget. Failing loudly
// beats silently ignoring the request.
func modeConflict(mode string, spec rt.SpecMode, conditional bool, maxSteps int64) string {
	switch {
	case mode == "parallel":
	case spec != rt.SpecOff:
		return fmt.Sprintf("-speculate %s requires -mode parallel (the %s mode cannot monitor effects)", spec, mode)
	case conditional:
		return fmt.Sprintf("-conditional on requires -mode parallel (the %s mode evaluates no guards)", mode)
	case maxSteps > 0:
		return fmt.Sprintf("-maxsteps requires -mode parallel (the %s mode keeps no step budget)", mode)
	}
	return ""
}

func main() {
	mode := flag.String("mode", "serial", "serial | parallel | simulate")
	workers := flag.Int("workers", 4, "worker count for -mode parallel")
	procs := flag.String("procs", "1,2,4,8,16,32", "processor counts for -mode simulate")
	app := flag.String("app", "", "run a built-in application ("+src.AppNames()+")")
	timeout := flag.Duration("timeout", 0, "abort execution after this wall-clock deadline (0: none)")
	maxSteps := flag.Int64("maxsteps", 0, "abort after this many interpreter statements (0: unlimited)")
	speculate := flag.String("speculate", "off", fmt.Sprintf("speculative parallelization of rejected extents: off | auto (analysis confidence at least %v) | force", rt.DefaultSpecThreshold))
	conditional := flag.String("conditional", "off", "guarded execution of conditionally-eligible extents: on | off (the synthesized guard decides parallel vs serial at region entry)")
	condhashMode := flag.Int("condhash-mode", 0, "table mode for -app condhash (0: accumulate, guard true; else overwrite, guard false)")
	statsJSON := flag.Bool("stats-json", false, "emit run stats as one JSON line (the daemon's /v1/run stats schema) instead of the human summary")
	dump := flag.Bool("dump", false, "dump the final global state to stdout after the run, suppressing the human summary (the native backend's -dump format)")
	flag.Parse()

	spec, ok := rt.ParseSpecMode(*speculate)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown speculate mode %q\n", *speculate)
		os.Exit(2)
	}
	var condOn bool
	switch *conditional {
	case "on":
		condOn = true
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "unknown conditional mode %q (on | off)\n", *conditional)
		os.Exit(2)
	}
	if msg := modeConflict(*mode, spec, condOn, *maxSteps); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}

	var name, source string
	switch {
	case *app != "":
		name = *app
		var ok bool
		if _, source, ok = src.App(*app); !ok {
			fmt.Fprintf(os.Stderr, "unknown app %q (have %s)\n", *app, src.AppNames())
			os.Exit(2)
		}
		if *app == "condhash" && *condhashMode != 0 {
			source = src.CondHashBase + src.CondHashMain(*condhashMode, 6)
		}
	case flag.NArg() == 1:
		name = flag.Arg(0)
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		source = string(data)
	default:
		flag.Usage()
		os.Exit(2)
	}

	sys, err := commute.Load(name, source)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// emitStats writes the machine-readable run summary — one JSON line
	// in the same schema the commuted daemon returns from /v1/run
	// (internal/server/api.RunStats), so tooling parses both outputs
	// identically.
	emitStats := func(st api.RunStats) {
		line, err := json.Marshal(st)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}

	switch *mode {
	case "serial":
		start := time.Now()
		ip, err := sys.RunSerialContext(ctx, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		if *dump {
			nativegen.DumpInterp(os.Stdout, sys.Prog, ip)
			return
		}
		if *statsJSON {
			emitStats(api.NewRunStats("serial", 0, wall, nil))
			return
		}
		fmt.Printf("serial execution: %v\n", wall)

	case "parallel":
		start := time.Now()
		opts := commute.RunOptions{
			Workers:     *workers,
			MaxSteps:    *maxSteps,
			Speculate:   spec,
			Conditional: condOn,
		}
		ip, stats, err := sys.RunParallelOpts(ctx, opts, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		if *dump {
			nativegen.DumpInterp(os.Stdout, sys.Prog, ip)
			return
		}
		if *statsJSON {
			emitStats(api.NewRunStats("parallel", *workers, wall, stats))
			return
		}
		fmt.Printf("parallel execution (%d workers): %v\n", *workers, wall)
		fmt.Printf("regions=%d loops=%d chunks=%d iterations=%d tasks=%d locks=%d steals=%d localpops=%d\n",
			stats.Regions, stats.ParallelLoops, stats.Chunks,
			stats.Iterations, stats.Tasks, stats.LockAcquires,
			stats.Steals, stats.LocalPops)
		if stats.TaskPanics > 0 {
			fmt.Printf("panics isolated=%d\n", stats.TaskPanics)
		}
		if stats.SpeculativeRegions > 0 {
			fmt.Printf("speculative regions=%d commits=%d aborts=%d\n",
				stats.SpeculativeRegions, stats.SpeculationCommits, stats.SpeculationAborts)
		}
		if stats.GuardParallel > 0 || stats.GuardSerial > 0 {
			fmt.Printf("guarded regions parallel=%d serial=%d\n",
				stats.GuardParallel, stats.GuardSerial)
		}
		if stats.RegionsDeclined > 0 {
			fmt.Printf("regions declined (work under the entry cost)=%d\n", stats.RegionsDeclined)
		}

	case "simulate":
		var counts []int
		for _, ps := range strings.Split(*procs, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(ps))
			if err != nil || p < 1 {
				fmt.Fprintf(os.Stderr, "bad processor count %q\n", ps)
				os.Exit(2)
			}
			counts = append(counts, p)
		}
		if err := simulate(ctx, sys, counts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// simulate traces sys under ctx and prints its simulated time, speedup
// and blocked time at each processor count.
func simulate(ctx context.Context, sys *commute.System, procs []int, w io.Writer) error {
	tr, err := sys.Trace(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s  %12s  %8s  %10s\n", "procs", "time (s)", "speedup", "blocked (s)")
	var base float64
	for _, p := range procs {
		res := commute.Simulate(tr, p)
		if base == 0 {
			base = res.TimeMicros
		}
		fmt.Fprintf(w, "%6d  %12.3f  %7.2fx  %10.3f\n",
			p, res.TimeMicros/1e6, base/res.TimeMicros, res.Breakdown.Blocked/1e6)
	}
	return nil
}
