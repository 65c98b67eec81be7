// Commutebench regenerates the tables and figures of the paper's
// evaluation section (§6) on the simulated multiprocessor.
//
// Usage:
//
//	commutebench                      # every experiment, default sizes
//	commutebench -exp table3         # one experiment
//	commutebench -paper              # the paper's workload sizes
//	commutebench -bodies 2048,4096 -mols 216,343
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"commute/internal/bench"
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "", "experiment ID (table1..table12, fig17..fig20, ablation-*, depbase); empty = all")
	paper := flag.Bool("paper", false, "use the paper's workload sizes (slow)")
	bodies := flag.String("bodies", "", "Barnes-Hut body counts, e.g. 1024,2048")
	mols := flag.String("mols", "", "Water molecule counts, e.g. 125,216")
	procsFlag := flag.String("procs", "", "processor counts, e.g. 1,2,4,8,16,32")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	timeout := flag.Duration("timeout", 0, "abort the whole regeneration after this deadline (0: none)")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.DefaultConfig()
	if *paper {
		cfg = bench.PaperConfig()
	}
	var err error
	if *bodies != "" {
		if cfg.BHBodies, err = parseInts(*bodies); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *mols != "" {
		if cfg.WaterMols, err = parseInts(*mols); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *procsFlag != "" {
		if cfg.Procs, err = parseInts(*procsFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	r := bench.NewRunner(cfg)
	run := func() (string, error) {
		if *exp == "" {
			return r.RunAll()
		}
		return r.Run(*exp)
	}

	var out string
	if *timeout > 0 {
		// The bench harness has no internal cancellation points, so the
		// deadline is enforced from outside: a run that overshoots it is
		// abandoned and the process exits non-zero instead of hanging.
		type result struct {
			out string
			err error
		}
		ch := make(chan result, 1)
		go func() {
			o, e := run()
			ch <- result{o, e}
		}()
		select {
		case res := <-ch:
			out, err = res.out, res.err
		case <-time.After(*timeout):
			fmt.Fprintf(os.Stderr, "benchmark run exceeded deadline %v\n", *timeout)
			os.Exit(1)
		}
	} else {
		out, err = run()
	}
	if out != "" {
		fmt.Println(out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
