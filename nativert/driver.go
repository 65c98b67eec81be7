package nativert

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"commute/rtkit"
)

// Driver is the run state of an emitted program: the policy and worker
// count its command line selected, read by the R_ wrappers and parallel
// loops of prog.go, and the counters those wrappers bump. The emitted
// main.go declares the program's one Driver and calls Main.
type Driver struct {
	Policy
	Workers int
	Stats
}

// RunSpeculative runs one speculative region: root — the journaled parallel
// version — on the calling goroutine with the run-wide pool's external
// handle, under panic capture; the pool drains at the join barrier, and
// the region validates and commits single-threaded. It reports whether
// the region committed. When it did not, every buffer is discarded and
// the heap is as it was at entry: the caller runs the serial version.
func (d *Driver) RunSpeculative(readOK, writeOK map[string]bool, root func(*rtkit.Worker, *SpecRegion, *SpecJournal)) bool {
	pool := Pool(d.Workers)
	sr := NewSpecRegion(readOK, writeOK)
	func() {
		defer sr.CapturePanic()
		root(pool.External(), sr, sr.NewJournal())
	}()
	pool.Drain()
	if sr.Commit() {
		d.SpeculationCommits++
		return true
	}
	d.SpeculationAborts++
	return false
}

// Main is the emitted program's main: it reads the command line into the
// driver, runs the program — run, on the fresh global roots initGlobals
// allocates — and exits. Exit codes: 0, 1 for a run-time failure of the
// program (a *Error, reported on stderr), 2 for a usage error.
func (d *Driver) Main(initGlobals, run func(), dump func(*Dumper)) {
	os.Exit(d.main(os.Args, os.Stdout, os.Stderr, initGlobals, run, dump))
}

func (d *Driver) main(args []string, stdout, stderr io.Writer, initGlobals, run func(), dump func(*Dumper)) (code int) {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "serial", "execution mode: serial | parallel")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker count for -mode parallel")
	fs.BoolVar(&d.Conditional, "conditional", false, "honor synthesized commutativity guards (off leaves guarded extents to -speculate, else serial)")
	guardstats := fs.Bool("guardstats", false, "print guard_parallel/guard_serial/regions_declined counters to stderr at exit")
	speculate := fs.String("speculate", "off", "speculative execution of rejected extents: off | auto | force")
	specstats := fs.Bool("specstats", false, "print spec_regions/spec_commits/spec_aborts counters to stderr at exit")
	dumpState := fs.Bool("dump", false, "dump final global state after the run")
	bench := fs.Int("bench", 0, "time N repetitions and print ns_per_op")
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	switch *mode {
	case "serial":
	case "parallel":
		d.Parallel = true
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", *mode)
		return 2
	}
	d.Workers = max(*workers, 1)
	var ok bool
	if d.Speculate, ok = ParseSpecMode(*speculate); !ok {
		fmt.Fprintf(stderr, "unknown speculation policy %q\n", *speculate)
		return 2
	}
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*Error)
			if !ok {
				panic(r)
			}
			FlushOut()
			fmt.Fprintln(stderr, e)
			code = 1
		}
	}()
	// The counters are printed however the run ends, ahead of a failure's
	// report.
	defer func() {
		if *specstats {
			fmt.Fprintf(stderr, "spec_regions %d\nspec_commits %d\nspec_aborts %d\n",
				d.SpeculativeRegions, d.SpeculationCommits, d.SpeculationAborts)
		}
		if *guardstats {
			fmt.Fprintf(stderr, "guard_parallel %d\nguard_serial %d\nregions_declined %d\n",
				d.GuardParallel, d.GuardSerial, d.RegionsDeclined)
		}
	}()
	if *bench > 0 {
		initGlobals()
		run() // warm-up
		start := time.Now()
		for i := 0; i < *bench; i++ {
			initGlobals()
			run()
		}
		elapsed := time.Since(start)
		FlushOut()
		fmt.Fprintf(stdout, "ns_per_op %d\n", elapsed.Nanoseconds()/int64(*bench))
		return 0
	}
	initGlobals()
	run()
	FlushOut()
	if *dumpState {
		dd := NewDumper(stdout)
		dump(dd)
		dd.Flush()
	}
	return 0
}
