// Commutec is the compiler driver: it parses and type checks a program
// in the mini-C++ dialect, runs commutativity analysis, and reports
// which methods are parallel, each parallel extent's statistics, the
// detected parallel loops, the region roots with their static work
// bounds, and the lock policy, all of the one plan every execution runs.
//
// Usage:
//
//	commutec [-v] file.mc
//	commutec [-v] -app barneshut|water|graph|...
//	commutec -emit source file.mc          # Figure 2 style source-to-source output
//	commutec -emit go -o DIR file.mc       # native Go package (build with go build)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/cond"
	"commute/internal/nativegen"
	"commute/internal/rt"
)

func main() {
	app := flag.String("app", "", "analyze a built-in application ("+src.AppNames()+") instead of a file")
	verbose := flag.Bool("v", false, "print per-pair commutativity details")
	emit := flag.String("emit", "", "emit instead of the report: source (the Figure 2 style transformed source) | go (native Go package, requires -o)")
	outDir := flag.String("o", "", "output directory for -emit go")
	doTransform := flag.Bool("transform", false, "apply the §7.2 loop replacement (while loops → tail-recursive methods) before analysis")
	flag.Parse()

	var name, source string
	switch {
	case *app != "":
		name = *app
		var ok bool
		if _, source, ok = src.App(*app); !ok {
			fmt.Fprintf(os.Stderr, "unknown app %q (have %s)\n", *app, src.AppNames())
			os.Exit(2)
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

	sys, err := commute.LoadOpts(name, source, commute.LoadOptions{Transform: *doTransform})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, rw := range sys.Rewrites {
		fmt.Printf("// loop in %s replaced by tail-recursive %s\n", rw.Method, rw.Helper)
	}

	switch *emit {
	case "":
	case "source":
		fmt.Print(sys.Plan.EmitParallelSource(sys.File))
		return
	case "go":
		if *outDir == "" {
			fmt.Fprintln(os.Stderr, "-emit go requires -o DIR")
			os.Exit(2)
		}
		// The emitted package carries every tier; its driver's
		// -conditional and -speculate flags pick among them at run time.
		if err := nativegen.Generate(sys, name, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote native Go package for %s to %s (build with: cd %s && go build)\n", name, *outDir, *outDir)
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown -emit mode %q (have source, go)\n", *emit)
		os.Exit(2)
	}

	report(os.Stdout, name, sys, *verbose)
}

// report writes the analysis report of a loaded program: each method's
// commutativity outcome, then, from the plan every execution runs, its
// candidate loops, its region roots with their work bounds and the
// runtimes that decline them, and its lock policy.
func report(w io.Writer, name string, sys *commute.System, verbose bool) {
	p := sys.Plan
	fmt.Fprintf(w, "== commutativity analysis: %s ==\n\n", name)
	for _, r := range sys.Reports() {
		if r.Parallel {
			fmt.Fprintf(w, "PARALLEL %-30s extent=%d aux=%d independent=%d symbolic=%d\n",
				r.Method.FullName(), r.ExtentSize, r.AuxiliaryCallSites,
				r.IndependentPairs, r.SymbolicPairs)
			if verbose {
				for _, pr := range r.Pairs {
					kind := "independent"
					if !pr.Independent {
						kind = "symbolically executed"
					}
					fmt.Fprintf(w, "         commute(%s, %s): %s\n",
						pr.M1.FullName(), pr.M2.FullName(), kind)
				}
			}
		} else if r.ConditionalEligible {
			fmt.Fprintf(w, "COND     %-30s guard: %s\n", r.Method.FullName(), cond.Render(r.Guard))
			if verbose {
				fmt.Fprintf(w, "         reason: %s\n", r.Reason)
				fmt.Fprintf(w, "         condition: %s\n", r.Condition)
			}
		} else {
			fmt.Fprintf(w, "serial   %-30s %s\n", r.Method.FullName(), r.Reason)
		}
	}

	fmt.Fprintf(w, "\n== parallel loops ==\n")
	var lines []string
	for _, lp := range p.Loops {
		status := "parallel"
		switch {
		case lp.Parallel:
		case lp.Nested:
			status = "suppressed (nested)"
		default:
			status = "serial (" + lp.Reason + ")"
		}
		lines = append(lines, fmt.Sprintf("loop in %-26s %s", lp.Name, status))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	refused := ""
	if p.LoopsRefused > 0 {
		refused = fmt.Sprintf(" %d refused,", p.LoopsRefused)
	}
	fmt.Fprintf(w, "%d found, %d suppressed,%s %d generated\n",
		p.LoopsFound, p.LoopsSuppressed, refused, p.LoopsFound-p.LoopsSuppressed-p.LoopsRefused)

	// Region roots, with the static work bound the granularity cutoff
	// reads and which runtime's entry rule it makes decline the region.
	fmt.Fprintf(w, "\n== region roots ==\n")
	lines = lines[:0]
	for m, mp := range p.Methods {
		if !p.RegionRoot(m) {
			if mp.Parallel && p.GeneratesConcurrency(m) {
				// Only its result keeps it from being one.
				lines = append(lines, fmt.Sprintf("not a root  %s  returns %s: calls from serial code run the serial version", m.FullName(), m.Ret))
			}
			continue
		}
		work := "unbounded"
		if mp.Work != codegen.WorkUnbounded {
			work = strconv.FormatInt(mp.Work, 10)
		}
		var by []string
		if rt.Declines(p, m) {
			by = append(by, "interp")
		}
		if p.EmitDeclines(m) {
			by = append(by, "native")
		}
		line := fmt.Sprintf("root %-30s work %s", m.FullName(), work)
		if len(by) > 0 {
			line += "  declined: " + strings.Join(by, ", ")
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}

	fmt.Fprintf(w, "\n== lock policy ==\n")
	var locked []string
	for cl := range p.LockedClasses {
		locked = append(locked, cl.Name)
	}
	sort.Strings(locked)
	if len(locked) == 0 {
		fmt.Fprintln(w, "no classes require locks")
	}
	for _, cl := range locked {
		fmt.Fprintf(w, "class %s keeps its mutual exclusion lock\n", cl)
	}
	// Operations on nested objects only that still may not hold their
	// lock through, and why.
	lines = lines[:0]
	for m, mp := range p.Methods {
		if mp.NoHoist != "" {
			lines = append(lines, fmt.Sprintf("no hoisting  %s  %s", m.FullName(), mp.NoHoist))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	// The accumulations the plan takes off the lock (§6.3.4), and the
	// candidates it leaves on it, with the reason.
	for _, r := range p.Replicas {
		at := fmt.Sprintf("%s at %s on global %s", r.Site.Callee.FullName(), r.Site.Call.Pos(), r.Global.Name)
		if r.Refused == "" {
			fmt.Fprintf(w, "replicated: %s\n", at)
		} else {
			fmt.Fprintf(w, "not replicated: %s: %s\n", at, r.Refused)
		}
	}
	// The mutex versions it holds one receiver lock through, and the
	// candidates whose computation leaves the receiver.
	lines = lines[:0]
	for m, mp := range p.Methods {
		switch {
		case mp.Coarse:
			lines = append(lines, fmt.Sprintf("coarsened: %s holds %s's lock through its mutex version", m.FullName(), m.Class.Name))
		case mp.NoCoarsen != "":
			lines = append(lines, fmt.Sprintf("not coarsened: %s: %s", m.FullName(), mp.NoCoarsen))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
