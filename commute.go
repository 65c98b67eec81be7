// Package commute is a from-scratch reproduction of "Commutativity
// Analysis: A New Analysis Framework for Parallelizing Compilers"
// (Rinard & Diniz, PLDI 1996): a parallelizing compiler for an
// object-based C++ subset whose primary analysis discovers operations
// that commute — generate the same final result in either execution
// order — and automatically generates parallel code for computations,
// including dynamic pointer-based ones, whose operations all commute.
//
// The pipeline is:
//
//	Load (parse + type check)          internal/frontend
//	  → commutativity analysis         internal/analysis, internal/core
//	  → code generation plan           internal/codegen
//	  → execution                      internal/interp (serial),
//	                                   internal/rt (goroutine parallel),
//	                                   internal/tracer + internal/simdash
//	                                   (simulated multiprocessor)
//
// A minimal use:
//
//	sys, err := commute.Load("graph.mc", source)
//	report := sys.Report("builder::traverse") // analysis outcome
//	err = sys.RunParallel(8, os.Stdout)       // real parallel execution
package commute

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/rt"
	"commute/internal/simdash"
	"commute/internal/tracer"
	"commute/internal/transform"
)

// System is a compiled program together with its commutativity analysis
// and code generation plan.
type System struct {
	File     *ast.File
	Prog     *types.Program
	Analysis *core.Analysis
	Plan     *codegen.Plan

	// CondPlan is the plan every parallel execution runs — the
	// interpreter runtime and the emitted Go package alike. It extends
	// Plan, leaving every proven method and loop as Plan has it: extents
	// whose pair failures all synthesized guardable residual predicates
	// carry a runtime guard (codegen.Options.ConditionalGuards), and the
	// other extents rejected only at the symbolic pair stage carry
	// write-buffered speculative versions
	// (codegen.Options.SpeculateRejected). Which tier an unproven extent
	// runs under is decided at each region entry from
	// RunOptions.Conditional and RunOptions.Speculate; with both off it
	// runs its serial version, as under Plan.
	CondPlan *codegen.Plan
}

// Load parses, type checks, analyzes, and plans a program written in
// the mini-C++ dialect. The analysis phase fans out across GOMAXPROCS
// goroutines.
func Load(name, source string) (*System, error) {
	file, prog, err := check(name, source)
	if err != nil {
		return nil, err
	}
	return newSystem(file, prog), nil
}

// check is the frontend alone: parse and type check, no analysis.
func check(name, source string) (*ast.File, *types.Program, error) {
	file, err := parser.Parse(name, source)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := types.Check(file)
	if err != nil {
		return nil, nil, fmt.Errorf("type check: %w", err)
	}
	return file, prog, nil
}

// newSystem analyzes a checked program and builds its two plans. file is
// nil for a program parsed from several files (LoadFiles).
func newSystem(file *ast.File, prog *types.Program) *System {
	analysis := core.New(prog)
	return &System{
		File:     file,
		Prog:     prog,
		Analysis: analysis,
		Plan:     codegen.Build(analysis),
		CondPlan: codegen.BuildWithOptions(analysis, codegen.Options{ConditionalGuards: true, SpeculateRejected: true}),
	}
}

// LoadTransformed applies the §7.2 loop-replacement transformation —
// while loops rewritten into tail-recursive auxiliary methods — before
// analysis, widening the set of computations the symbolic executor can
// analyze (e.g. pointer-chasing accumulation loops). It returns the
// loaded system, the transformed source, and the rewrites performed.
func LoadTransformed(name, source string) (*System, string, []transform.Rewrite, error) {
	// The rewrite reads the checked program; only the text kept is analyzed.
	file, prog, err := check(name, source)
	if err != nil {
		return nil, "", nil, err
	}
	out, rewrites := transform.WhileToRecursion(prog, file)
	if len(rewrites) == 0 {
		return newSystem(file, prog), source, nil, nil
	}
	sys, err := Load(name, out)
	if err != nil {
		return nil, out, rewrites, fmt.Errorf("transformed source failed to reload: %w", err)
	}
	return sys, out, rewrites, nil
}

// LoadOptions selects load-time dialect options. The options are part
// of a program's cache identity: two loads of the same source with
// different options are different programs (see Fingerprint).
type LoadOptions struct {
	// Transform applies the §7.2 loop-replacement rewrite (while loops
	// → tail-recursive auxiliary methods) before analysis, as
	// LoadTransformed does.
	Transform bool
}

// Fingerprint returns the content address of a (source, options) pair:
// the hex SHA-256 of a canonical encoding of the name, source text, and
// load options. Equal fingerprints mean Load would produce an
// equivalent System, so a caching layer may reuse a previously loaded
// one — including its warm per-program resolution and compiled-closure
// caches — without re-running any phase of the pipeline.
func Fingerprint(name, source string, opts LoadOptions) string {
	h := sha256.New()
	// Length-prefix each field so no two distinct inputs collide by
	// concatenation.
	fmt.Fprintf(h, "%d:%s;%d:%s;transform=%t", len(name), name, len(source), source, opts.Transform)
	return hex.EncodeToString(h.Sum(nil))
}

// LoadOpts loads a program under the given options. It is the
// cache-facing entry point: the result of LoadOpts is fully determined
// by Fingerprint(name, source, opts).
func LoadOpts(name, source string, opts LoadOptions) (*System, error) {
	if opts.Transform {
		sys, _, _, err := LoadTransformed(name, source)
		return sys, err
	}
	return Load(name, source)
}

// Warm forces the per-program lazy caches — slot resolution and the
// closure-compiled method bodies — to build now instead of on the first
// execution. A caching layer calls this once at load time so every
// subsequent request, including the first execution, runs against a
// fully warm System.
func (s *System) Warm() { interp.Warm(s.Prog) }

// Release drops the per-program resolution and compiled-closure caches,
// releasing their memory. Call it when evicting a System from a cache.
// The caller must guarantee no executions of this System are in flight
// (and none start concurrently): a later execution would rebuild the
// caches, including re-annotating the shared AST, which is only safe
// once every prior reader is done.
func (s *System) Release() { interp.Release(s.Prog) }

// LoadFiles parses several source files into one program (class and
// global declarations are visible across files). Files are taken in
// name order, so declaration order, method IDs and everything emitted
// from the plans are the same on every load.
func LoadFiles(sources map[string]string) (*System, error) {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.Parse(name, sources[name])
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	prog, err := types.Check(files...)
	if err != nil {
		return nil, fmt.Errorf("type check: %w", err)
	}
	return newSystem(nil, prog), nil
}

// Report returns the commutativity analysis report for a method named
// "class::method" (or a free function name), or nil if no such method
// exists.
func (s *System) Report(fullName string) *core.MethodReport {
	m := s.Prog.MethodByFullName(fullName)
	if m == nil {
		return nil
	}
	return s.Analysis.IsParallel(m)
}

// Reports returns the analysis reports for every defined method.
func (s *System) Reports() []*core.MethodReport { return s.Analysis.AnalyzeAll() }

// ParallelMethods returns the full names of the methods the analysis
// marked parallel.
func (s *System) ParallelMethods() []string {
	var out []string
	for _, m := range s.Analysis.ParallelMethods() {
		out = append(out, m.FullName())
	}
	return out
}

// RunSerial executes the program serially (the original semantics) and
// returns the interpreter for state inspection.
func (s *System) RunSerial(out io.Writer) (*interp.Interp, error) {
	return s.RunSerialContext(context.Background(), out)
}

// RunSerialEngine executes the program serially on the chosen
// execution engine: interp.EngineCompiled, which every other entry point
// runs, or interp.EngineWalk, the tree walker the differential tests
// compare against.
func (s *System) RunSerialEngine(eng interp.Engine, out io.Writer) (*interp.Interp, error) {
	return s.runSerial(context.Background(), eng, out)
}

// RunSerialContext executes the program serially under ctx: a deadline
// or cancellation on ctx aborts execution between statements, so a
// runaway program returns an error instead of hanging the caller.
func (s *System) RunSerialContext(ctx context.Context, out io.Writer) (*interp.Interp, error) {
	return s.runSerial(ctx, interp.EngineCompiled, out)
}

func (s *System) runSerial(ctx context.Context, eng interp.Engine, out io.Writer) (*interp.Interp, error) {
	ip := interp.NewEngine(s.Prog, out, eng)
	c := ip.NewCtx()
	if ctx != nil && ctx.Done() != nil {
		c.Interrupt = func() error {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			return nil
		}
	}
	return ip, ip.Run(c)
}

// RunParallel executes the program with the generated parallel code on
// a goroutine-backed runtime with the given number of workers.
func (s *System) RunParallel(workers int, out io.Writer) (*interp.Interp, *rt.Stats, error) {
	return s.RunParallelOpts(context.Background(), RunOptions{Workers: workers}, out)
}

// RunOptions configures hardened parallel execution. The deadline of a
// run is its context's.
type RunOptions struct {
	// Workers is the goroutine worker count (min 1).
	Workers int
	// MaxSteps bounds interpreter statements across the run
	// (0: unlimited) — a deterministic guard against runaway programs.
	MaxSteps int64
	// Speculate enables speculative parallelization of extents the
	// analysis rejected at the symbolic pair stage: such extents' writes
	// are buffered in per-task journals that are validated and committed
	// at the join barrier, or discarded and re-run serially on a
	// violation (rt.SpecOff, the default; rt.SpecAuto, which speculates
	// at confidence rt.DefaultSpecThreshold or above; rt.SpecForce).
	Speculate rt.SpecMode
	// Conditional enables guarded parallelization of extents whose pair
	// failures all synthesized guardable residual predicates: each such
	// extent's guard is evaluated at region entry — true runs the
	// parallel region, false takes the serial path
	// (rt.Stats.GuardParallel / GuardSerial count the outcomes). The
	// guard takes precedence over speculation; a guard-false extent may
	// still speculate under rt.SpecForce. When off, such an extent is
	// treated like any other unproven one (see rt.Runtime.Conditional).
	Conditional bool
}

// RunParallelOpts executes the program on the hardened parallel
// runtime: panics inside the parallel region surface as *rt.TaskError,
// and ctx cancellation or deadline and the MaxSteps budget abort runaway
// programs. A failed region fails the run; the only re-execution is a
// speculative region's exact serial rerun after an abort.
func (s *System) RunParallelOpts(ctx context.Context, opts RunOptions, out io.Writer) (*interp.Interp, *rt.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ip := interp.New(s.Prog, out)
	r := rt.New(ip, s.CondPlan, opts.Workers)
	r.Conditional = opts.Conditional
	r.Speculate = opts.Speculate
	r.MaxSteps = opts.MaxSteps
	err := r.RunContext(ctx)
	return ip, &r.Stats, err
}

// Trace executes the program once, recording the parallel task/lock
// event structure for simulation.
func (s *System) Trace() (*tracer.Trace, error) {
	return tracer.Collect(interp.New(s.Prog, nil), s.Plan)
}

// Simulate runs a trace on the simulated multiprocessor.
func Simulate(tr *tracer.Trace, procs int) *simdash.Result {
	return simdash.Simulate(tr, simdash.DefaultParams(procs))
}

// SimulateWith runs a trace with explicit machine parameters.
func SimulateWith(tr *tracer.Trace, p simdash.Params) *simdash.Result {
	return simdash.Simulate(tr, p)
}
