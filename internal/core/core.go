// Package core implements the paper's primary contribution: the
// commutativity analysis driver of Figure 3 (isParallel), the
// separability check of §4.6, the reference-parameter checks of Figure
// 10, and the commutativity testing algorithm of Figure 11, built on
// the effects, extent, and symbolic packages.
package core

import (
	"fmt"
	"sync"

	"commute/internal/analysis/effects"
	"commute/internal/analysis/extent"
	"commute/internal/analysis/symbolic"
	"commute/internal/cond"
	"commute/internal/frontend/types"
)

// isFalsePred reports whether p is the unsatisfiable predicate.
func isFalsePred(p cond.Pred) bool {
	_, ok := p.(cond.False)
	return ok
}

// Analysis runs commutativity analysis over one checked program.
//
// Concurrency contract: the analysis runs on the goroutine that asks
// for it — IsParallel analyzes one method there, AnalyzeAll every
// defined method in ID order — and an Analysis is safe for concurrent
// use. Each method's report is computed exactly once and published
// through a sync.Once cell, so any number of goroutines may call
// IsParallel / AnalyzeAll / Report concurrently; later callers share
// the first computation's immutable *MethodReport. The effects analyzer
// carries its own per-method once-published memos (see
// effects.Analyzer), which concurrent callers and the code generator's
// plan builders read. Results are deterministic — identical in whatever
// order the methods are asked for.
//
// What the analyses share while they run — the symbolic first-run
// states and the pair verdicts (see memo) — serves no published report:
// it is dropped when the last defined method's report is published,
// after which IsParallel is a report lookup and the Analysis retains
// the reports and the effects memos only.
type Analysis struct {
	Prog *types.Program
	Eff  *effects.Analyzer

	mu      sync.Mutex
	reports map[*types.Method]*reportCell
	memo    *memo // nil once every report is published
	pending int   // defined methods whose report is not yet published

	// work is the code generator's static work estimate per method
	// (codegen/work.go): a fact of the program alone, kept here because
	// the Analysis is what the plans built on one Load have in common.
	workOnce sync.Once
	work     []int64

	// Options.

	// DisableAuxiliary turns off auxiliary-operation recognition
	// (§3.5.2); used by the ablation benchmarks.
	DisableAuxiliary bool
	// DisableExtentConstants turns off the extent-constant extension
	// (§3.5.1); reads of non-receiver storage become unanalyzable.
	DisableExtentConstants bool
}

// reportCell publishes one method's report exactly once; see the
// Analysis concurrency contract.
type reportCell struct {
	once sync.Once
	r    *MethodReport
}

// memo is what the method analyses of one program share: the symbolic
// executor's per-program cache and the symbolic pair verdicts, each
// entry reusable under every environment that answers its questions
// alike (see symbolic.Memo).
type memo struct {
	sym   *symbolic.Cache
	pairs symbolic.Memo[pairKey, PairResult]
}

// New returns an Analysis for prog.
func New(prog *types.Program) *Analysis {
	a := &Analysis{
		Prog:    prog,
		Eff:     effects.NewAnalyzer(prog),
		reports: make(map[*types.Method]*reportCell),
		memo:    &memo{sym: symbolic.NewCache(prog)},
	}
	for _, m := range prog.Methods {
		if m.Def != nil {
			a.pending++
		}
	}
	return a
}

// MethodWork returns what compute returned the first time it was called
// on a — the per-method work estimate, by types.Method.ID, that every
// plan built from this analysis carries — so the estimate is made once
// however many plans are built. Safe for concurrent use.
func (a *Analysis) MethodWork(compute func() []int64) []int64 {
	a.workOnce.Do(func() { a.work = compute() })
	return a.work
}

// PairResult records the outcome of one commutativity test.
type PairResult struct {
	M1, M2      *types.Method
	Independent bool
	Commutes    bool
	Reason      string
	// Pred, for a pair that failed the symbolic test on instance-
	// variable mismatches, is the synthesized residual commutativity
	// condition: the conjunction, over every differing instance
	// variable, of the predicate under which the two orders' final
	// values agree (see cond.Residual). Nil for pairs that commute and
	// for failures with no residual term (unanalyzable bodies,
	// differing footprints or invocation multisets).
	Pred cond.Pred
	// Condition is Pred's rendered form, kept for reports and
	// diagnostics. Empty exactly when Pred is nil.
	Condition string
}

// MethodReport is the analysis result for one method.
type MethodReport struct {
	Method   *types.Method
	Parallel bool
	Reason   string // first reason the method was marked serial

	EC  *effects.Set
	Ext *extent.Result

	// Statistics matching Tables 2 and 8 of the paper.
	AuxiliaryCallSites int
	ExtentSize         int
	IndependentPairs   int
	SymbolicPairs      int

	Pairs []PairResult

	// Confidence scores how close the extent came to the static proof:
	// 1.0 for a proven-parallel extent, the fraction of pairs proven
	// independent or commuting when only pairwise testing failed, and
	// 0.0 when a structural check (separability, reference parameters,
	// consumed return values, I/O, allocation) rejected the extent
	// before pair testing. A speculation policy uses it to decide
	// which rejected extents are worth running optimistically.
	Confidence float64
	// Pred is the extent's residual commutativity condition: the
	// conjunction of every failing pair's synthesized predicate. Nil
	// when the extent is parallel, was rejected before pair testing,
	// or some failing pair carried no residual term.
	Pred cond.Pred
	// Guard is Pred weakened to the runtime-evaluable fragment
	// (literals and extent-constant fields of global objects — see
	// cond.Guard). Guard implies Pred, so checking it at region entry
	// soundly gates the parallel lowering. Nil when no evaluable
	// fragment remains.
	Guard cond.Pred
	// Condition is Pred's rendered form; empty when Pred is nil.
	Condition string
	// ConditionalEligible is true when the extent failed only the
	// pairwise commutativity test, every failing pair synthesized a
	// residual predicate, and the weakened Guard is satisfiable — so a
	// guarded lowering can run the extent in parallel whenever the
	// guard holds and fall back to the serial version otherwise.
	ConditionalEligible bool
	// SpeculationEligible is true when the extent failed *only* the
	// pairwise commutativity test — its structure is sound, every
	// effect is a rollback-safe object write, and no auxiliary callee
	// performs I/O — so speculative execution with write buffering can
	// run it in parallel and fall back to the serial version exactly.
	SpeculationEligible bool
}

// IsParallel runs the Figure 3 algorithm for m, computing the report
// once and sharing it with every caller. Safe for concurrent use.
func (a *Analysis) IsParallel(m *types.Method) *MethodReport {
	a.mu.Lock()
	c, ok := a.reports[m]
	if !ok {
		c = new(reportCell)
		a.reports[m] = c
	}
	memo := a.memo
	a.mu.Unlock()
	c.once.Do(func() {
		if m.Def == nil {
			c.r = &MethodReport{Method: m, Reason: "method has no definition"}
			return
		}
		// An unpublished defined method keeps pending above zero, so
		// the memo read above is still there.
		c.r = a.analyze(m, memo)
		a.mu.Lock()
		if a.pending--; a.pending == 0 {
			a.memo = nil
		}
		a.mu.Unlock()
	})
	return c.r
}

func (a *Analysis) analyze(m *types.Method, memo *memo) *MethodReport {
	r := &MethodReport{Method: m}

	// ec = extentConstantVariables(m); ⟨ext, aux⟩ = extent(m, ec).
	r.EC = extent.Constants(a.Eff, m)
	ecForExtent := r.EC
	if a.DisableExtentConstants {
		ecForExtent = effects.NewSet()
	}
	ext := extent.Compute(a.Eff, m, ecForExtent)
	if a.DisableAuxiliary {
		// Reclassify every auxiliary site as an extent site (and pull
		// the auxiliary callees into the extent): with an empty
		// extent-constant set no call site qualifies as auxiliary.
		ext = extent.Compute(a.Eff, m, effects.NewSet())
	}
	r.Ext = ext
	r.AuxiliaryCallSites = len(ext.Aux)
	r.ExtentSize = len(ext.Methods)

	if !a.checkReferenceParameters(m, ext, r) {
		return r
	}

	// Extent operations execute asynchronously in the generated code,
	// so their return values cannot be consumed (§4's model: operations
	// return no values; only auxiliary operations may).
	for _, site := range ext.Ext {
		if site.ValueUsed {
			r.Reason = fmt.Sprintf("the return value of extent operation %s is used at %s",
				site.Callee.FullName(), site.Call.Pos())
			return r
		}
	}

	// Separability, I/O, and allocation checks over ms.
	for _, m1 := range ext.Methods {
		if reason := a.separable(m1, ext, ecForExtent); reason != "" {
			r.Reason = fmt.Sprintf("%s is not separable: %s", m1.FullName(), reason)
			return r
		}
		if a.Eff.MayPerformIO(m1) {
			r.Reason = fmt.Sprintf("%s may perform I/O", m1.FullName())
			return r
		}
		if a.Eff.MayCreateObject(m1) {
			r.Reason = fmt.Sprintf("%s may create objects", m1.FullName())
			return r
		}
	}

	// Pairwise commutativity testing, in two stages: the cheap §4.7
	// independence test first, and symbolic execution only for the
	// pairs it cannot separate.
	aux := make(map[int]bool, len(ext.Aux))
	for _, c := range ext.Aux {
		aux[c.ID] = true
	}
	env := memo.sym.Env(ecForExtent, aux)

	n := len(ext.Methods)
	pairs := make([]PairResult, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			m1, m2 := ext.Methods[i], ext.Methods[j]
			if a.independent(m1, m2) {
				pairs = append(pairs, PairResult{M1: m1, M2: m2, Independent: true, Commutes: true})
			} else {
				pairs = append(pairs, symbolicPair(memo, m1, m2, env))
			}
		}
	}

	ok := true
	passed := 0
	condOK := true
	var residuals []cond.Pred
	for _, pr := range pairs {
		if pr.Independent {
			r.IndependentPairs++
		} else {
			r.SymbolicPairs++
		}
		if pr.Commutes {
			passed++
			continue
		}
		if ok {
			ok = false
			r.Reason = fmt.Sprintf("operations %s and %s may not commute: %s",
				pr.M1.FullName(), pr.M2.FullName(), pr.Reason)
		}
		// Every failing pair contributes its residual; one pair without
		// a residual term means the extent cannot be conditionally
		// parallelized.
		if pr.Pred == nil {
			condOK = false
		} else {
			residuals = append(residuals, pr.Pred)
		}
	}
	r.Pairs = pairs
	r.Parallel = ok
	if !ok && condOK && len(residuals) > 0 {
		r.Pred = cond.MkAnd(residuals...)
		r.Condition = cond.Render(r.Pred)
		if g := cond.Guard(r.Pred); !isFalsePred(g) {
			r.Guard = g
			r.ConditionalEligible = true
		}
	}
	if ok {
		r.Reason = ""
		r.Confidence = 1
	} else if len(pairs) > 0 {
		// The extent reached the pair stage, so every structural
		// property speculation relies on already holds: operations are
		// separable (effects are object writes, undoable by buffering),
		// perform no I/O, allocate nothing, and return no consumed
		// values. The only remaining hazard is the unproven pairs —
		// exactly what runtime monitoring checks — unless an auxiliary
		// callee performs I/O the rollback could not retract.
		r.Confidence = float64(passed) / float64(len(pairs))
		r.SpeculationEligible = true
		for _, c := range ext.Aux {
			if a.Eff.MayPerformIO(c.Callee) {
				r.SpeculationEligible = false
				break
			}
		}
	}
	return r
}

// AnalyzeAll runs IsParallel over every defined method, in method-ID
// order (Prog.Methods is indexed by ID) on the calling goroutine, and
// returns the reports in that order.
func (a *Analysis) AnalyzeAll() []*MethodReport {
	out := make([]*MethodReport, 0, len(a.Prog.Methods))
	for _, m := range a.Prog.Methods {
		if m.Def != nil {
			out = append(out, a.IsParallel(m))
		}
	}
	return out
}

// ParallelMethods returns the methods marked parallel.
func (a *Analysis) ParallelMethods() []*types.Method {
	var out []*types.Method
	for _, r := range a.AnalyzeAll() {
		if r.Parallel {
			out = append(out, r.Method)
		}
	}
	return out
}
