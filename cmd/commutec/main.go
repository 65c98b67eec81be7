// Commutec is the compiler driver: it parses and type checks a program
// in the mini-C++ dialect, runs commutativity analysis, and reports
// which methods are parallel, each parallel extent's statistics, the
// detected parallel loops, the region roots with their static work
// bounds, and the lock policy — the analogue of the paper's annotation
// file.
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
	"commute/internal/transform"
)

func main() {
	app := flag.String("app", "", "analyze a built-in application ("+src.AppNames()+") instead of a file")
	verbose := flag.Bool("v", false, "print per-pair commutativity details")
	emit := flag.String("emit", "", "emit instead of the report: source (the Figure 2 style transformed source) | go (native Go package, requires -o)")
	outDir := flag.String("o", "", "output directory for -emit go")
	doTransform := flag.Bool("transform", false, "apply the §7.2 loop replacement (while loops → tail-recursive methods) before analysis")
	annotations := flag.String("annotations", "", "also write the annotation file (JSON) to this path (the paper's analysis→codegen interface)")
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

	var sys *commute.System
	var err error
	if *doTransform {
		var rewrites []transform.Rewrite
		sys, _, rewrites, err = commute.LoadTransformed(name, source)
		if err == nil {
			for _, rw := range rewrites {
				fmt.Printf("// loop in %s replaced by tail-recursive %s\n", rw.Method, rw.Helper)
			}
		}
	} else {
		sys, err = commute.Load(name, source)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *annotations != "" {
		data, err := sys.Plan.AnnotationsJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*annotations, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
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

	fmt.Printf("== commutativity analysis: %s ==\n\n", name)
	for _, r := range sys.Reports() {
		if r.Parallel {
			fmt.Printf("PARALLEL %-30s extent=%d aux=%d independent=%d symbolic=%d\n",
				r.Method.FullName(), r.ExtentSize, r.AuxiliaryCallSites,
				r.IndependentPairs, r.SymbolicPairs)
			if *verbose {
				for _, pr := range r.Pairs {
					kind := "independent"
					if !pr.Independent {
						kind = "symbolically executed"
					}
					fmt.Printf("         commute(%s, %s): %s\n",
						pr.M1.FullName(), pr.M2.FullName(), kind)
				}
			}
		} else if r.ConditionalEligible {
			fmt.Printf("COND     %-30s guard: %s\n", r.Method.FullName(), cond.Render(r.Guard))
			if *verbose {
				fmt.Printf("         reason: %s\n", r.Reason)
				fmt.Printf("         condition: %s\n", r.Condition)
			}
		} else {
			fmt.Printf("serial   %-30s %s\n", r.Method.FullName(), r.Reason)
		}
	}

	fmt.Printf("\n== parallel loops ==\n")
	var lines []string
	for _, lp := range sys.Plan.Loops {
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
		fmt.Println(l)
	}
	p := sys.Plan
	refused := ""
	if p.LoopsRefused > 0 {
		refused = fmt.Sprintf(" %d refused,", p.LoopsRefused)
	}
	fmt.Printf("%d found, %d suppressed,%s %d generated\n",
		p.LoopsFound, p.LoopsSuppressed, refused, p.LoopsFound-p.LoopsSuppressed-p.LoopsRefused)

	// Region roots of the plan every execution runs, with the static
	// work bound the granularity cutoff reads and which runtime's entry
	// rule it makes decline the region.
	fmt.Printf("\n== region roots ==\n")
	lines = lines[:0]
	for m, mp := range sys.CondPlan.Methods {
		if !sys.CondPlan.RegionRoot(m) {
			if mp.Parallel && sys.CondPlan.GeneratesConcurrency(m) {
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
		if rt.Declines(sys.CondPlan, m) {
			by = append(by, "interp")
		}
		if sys.CondPlan.EmitDeclines(m) {
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
		fmt.Println(l)
	}

	fmt.Printf("\n== lock policy ==\n")
	var locked []string
	for cl := range sys.Plan.LockedClasses {
		locked = append(locked, cl.Name)
	}
	sort.Strings(locked)
	if len(locked) == 0 {
		fmt.Println("no classes require locks")
	}
	for _, cl := range locked {
		fmt.Printf("class %s keeps its mutual exclusion lock\n", cl)
	}
	// Operations on nested objects only that still may not hold their
	// lock through, and why.
	lines = lines[:0]
	for m, mp := range sys.Plan.Methods {
		if mp.NoHoist != "" {
			lines = append(lines, fmt.Sprintf("no hoisting  %s  %s", m.FullName(), mp.NoHoist))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}
