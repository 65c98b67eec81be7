package main

// The compile section: cold compile of a corpus, one program at a time
// (closed loop, one client; the analysis fans out over the default
// AnalysisWorkers, i.e. at most GOMAXPROCS = 2 goroutines).

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"commute"
	"commute/internal/analysis/effects"
	"commute/internal/analysis/extent"
	"commute/internal/analysis/symbolic"
	"commute/internal/codegen"
	"commute/internal/core"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/transform"
)

// emitted is what one compile produced, reduced to what is checked.
type emitted struct {
	digest  [sha256.Size]byte
	goBytes int
}

func digestOf(parallelSource string, files map[string][]byte) emitted {
	var e emitted
	h := sha256.New()
	h.Write([]byte(parallelSource))
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write(files[n])
		e.goBytes += len(files[n])
	}
	h.Sum(e.digest[:0])
	return e
}

// compileOp is one operation: source text → everything commutec,
// commuterun and /v1/analyze can be asked for before anything executes.
// Only the returned duration is timed; `after` (if any), digesting and
// releasing the per-program caches happen once the clock has stopped.
func compileOp(p program, after func(*commute.System) error) (time.Duration, emitted, error) {
	t0 := time.Now()
	sys, err := commute.LoadOpts(p.name, p.source, p.load)
	if err != nil {
		return 0, emitted{}, err
	}
	sys.Warm()
	par := sys.Plan.EmitParallelSource(sys.File)
	files, err := sys.CondPlan.EmitGoPackage(codegen.EmitGoOptions{AppName: p.name})
	d := time.Since(t0)
	defer sys.Release()
	if err == nil && after != nil {
		err = after(sys)
	}
	if err != nil {
		return 0, emitted{}, err
	}
	return d, digestOf(par, files), nil
}

type compileResult struct {
	names      []string
	perProgram map[string][]float64 // ms
	all        []float64            // ms, every measured sample
	allocMB    []float64            // per measured pass
	goBytes    float64              // emitted Go over the corpus
	layers     *layerAcc            // traced runs only
	traced     time.Duration        // Σ replay time (traced runs only)
	untraced   time.Duration        // Σ op time over the same programs
}

// bestPerProgram returns each program's fastest compile, ascending.
func (r compileResult) bestPerProgram() []float64 {
	var out []float64
	for _, n := range r.names {
		if xs := r.perProgram[n]; len(xs) > 0 {
			out = append(out, quantile(sorted(xs), 0))
		}
	}
	return sorted(out)
}

// corpusQuantile is a percentile over the corpus: the mean of the five
// per-program values centred on the nearest rank. One order statistic
// of 66 programs is one program's timing (its A/A spread reached 23 %);
// its two neighbours on either side are programs of nearly the same
// cost and average that program's luck away (≤ 14 % on the same runs).
func corpusQuantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := min(max(int(math.Ceil(q*float64(len(asc))))-1, 0), len(asc)-1)
	lo, hi := max(i-2, 0), min(i+3, len(asc))
	return sum(asc[lo:hi]) / float64(hi-lo)
}

// compileSection is the compile section's state between steps.
type compileSection struct {
	corpus []program
	want   []emitted // per program, fixed by the warm-up pass
	total  int       // measured compiles: passes × len(corpus)
	next   int
	alloc  uint64 // bytes allocated by the compiles of the current pass
	res    compileResult
	tl     *tally
	tr     *tracer
}

// newCompileSection runs the untimed warm-up pass: it fills the
// process-wide intern table, fixes each program's expected output
// digest, and runs every corpus program on the walker, the compiled
// engine and in parallel to see that they agree.
func newCompileSection(corpus []program, passes int, tl *tally, tr *tracer) *compileSection {
	s := &compileSection{corpus: corpus, want: make([]emitted, len(corpus)), total: passes * len(corpus), tl: tl, tr: tr}
	s.res.perProgram = map[string][]float64{}
	for i, p := range corpus {
		s.res.names = append(s.res.names, p.name)
		_, e, err := compileOp(p, func(sys *commute.System) error {
			return checkEnginesAgree(&loadedProg{p: p, sys: sys})
		})
		tl.op("compile warm-up "+p.name, err)
		s.want[i] = e
		s.res.goBytes += float64(e.goBytes)
	}
	if tr != nil {
		s.res.layers = newLayerAcc()
	}
	return s
}

// step compiles the next n programs, in corpus order, pass after pass.
// Every measured compile must reproduce the warm-up pass's emitted
// bytes exactly. With a tracer, each program is also replayed layer by
// layer right after its timed compile, so both see the same machine
// state.
func (s *compileSection) step(n int) {
	var ms runtime.MemStats
	for ; n > 0 && s.next < s.total; n, s.next = n-1, s.next+1 {
		i := s.next % len(s.corpus)
		p := s.corpus[i]
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		d, e, err := compileOp(p, nil)
		runtime.ReadMemStats(&ms)
		s.alloc += ms.TotalAlloc - a0
		if err == nil && e != s.want[i] {
			err = fmt.Errorf("emitted output differs from the warm-up pass")
		}
		if s.tl.op("compile "+p.name, err) {
			v := float64(d.Nanoseconds()) / 1e6
			s.res.perProgram[p.name] = append(s.res.perProgram[p.name], v)
			s.res.all = append(s.res.all, v)
			if s.tr != nil {
				rd, err := replayCompile(s.tr, s.next, p, s.res.layers)
				s.tl.op("replay "+p.name, err)
				s.res.traced += rd
				s.res.untraced += d
			}
		}
		if i == len(s.corpus)-1 {
			s.res.allocMB = append(s.res.allocMB, float64(s.alloc)/(1<<20))
			s.alloc = 0
			if s.tr != nil {
				s.res.layers.endPass()
			}
		}
	}
}

// layerAcc sums per-layer times (ms) and counts over one corpus pass
// and keeps each pass's sums.
type layerAcc struct {
	cur    map[string]float64
	passes []map[string]float64
	// perProgram is Σ pipeline child spans per program per pass (ms).
	perProgram map[string][]float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{cur: map[string]float64{}, perProgram: map[string][]float64{}}
}

func (a *layerAcc) ms(name string, d time.Duration) { a.cur[name] += float64(d.Nanoseconds()) / 1e6 }
func (a *layerAcc) n(name string, v int)            { a.cur[name] += float64(v) }
func (a *layerAcc) endPass() {
	a.passes = append(a.passes, a.cur)
	a.cur = map[string]float64{}
}

// median returns the median over passes of a layer's per-pass sum.
func (a *layerAcc) median(name string) float64 {
	var xs []float64
	for _, p := range a.passes {
		xs = append(xs, p[name])
	}
	return median(xs)
}

// replayCompile replays commute.LoadOpts + Warm + the two emitters step
// by step through each layer's public functions, one span per call,
// under one parent span for the program. It returns the time the
// replayed pipeline took (spans included, layer probes excluded).
func replayCompile(tr *tracer, op int, p program, acc *layerAcc) (time.Duration, error) {
	root := tr.begin("compile", -1, op)
	t0 := time.Now()
	var children time.Duration
	step := func(layer string, f func()) {
		s := tr.begin(layer, root, op)
		f()
		d := tr.end(s)
		acc.ms(layer+"_ms", d)
		children += d
	}

	type loaded struct {
		file             *ast.File
		prog             *types.Program
		an               *core.Analysis
		plan, spec, cond *codegen.Plan
	}
	// load mirrors commute.load: parse, check, analyze, three plans.
	load := func(source string) (l loaded, err error) {
		step("frontend.parse", func() { l.file, err = parser.Parse(p.name, source) })
		if err != nil {
			return l, err
		}
		step("frontend.check", func() { l.prog, err = types.Check(l.file) })
		if err != nil {
			return l, err
		}
		step("core.analyze", func() { l.an = core.New(l.prog); l.an.AnalyzeAll() })
		step("codegen.plan", func() { l.plan = codegen.Build(l.an) })
		step("codegen.specplan", func() {
			l.spec = codegen.BuildWithOptions(l.an, codegen.Options{SpeculateRejected: true})
		})
		step("codegen.condplan", func() {
			l.cond = codegen.BuildWithOptions(l.an, codegen.Options{ConditionalGuards: true, SpeculateRejected: true})
		})
		return l, nil
	}

	l, err := load(p.source)
	if err != nil {
		return 0, err
	}
	if p.load.Transform {
		// As commute.loadTransformed: the first load's program feeds the
		// rewrite, and a rewritten source is loaded again from scratch.
		var out string
		var rewrites []transform.Rewrite
		step("transform.rewrite", func() { out, rewrites = transform.WhileToRecursion(l.prog, l.file) })
		acc.n("transform.rewrites_n", len(rewrites))
		if len(rewrites) > 0 {
			if l, err = load(out); err != nil {
				return 0, err
			}
		}
	}
	step("interp.warm", func() { interp.Warm(l.prog) })
	var par string
	step("codegen.emit_source", func() { par = l.plan.EmitParallelSource(l.file) })
	var files map[string][]byte
	step("codegen.emit_go", func() { files, err = l.cond.EmitGoPackage(codegen.EmitGoOptions{AppName: p.name}) })
	tr.end(root)
	pipeline := time.Since(t0)
	interp.Release(l.prog)
	if err != nil {
		return 0, err
	}
	_ = files
	acc.perProgram[p.name] = append(acc.perProgram[p.name], float64(children.Nanoseconds())/1e6)
	acc.n("codegen.emit_source_bytes", len(par))
	acc.n("frontend.source_bytes", len(p.source))
	nodes := 0
	ast.Inspect(l.file, func(ast.Node) bool { nodes++; return true })
	acc.n("frontend.ast_nodes", nodes)

	probeLayers(tr, op, l.prog, l.an.AnalyzeAll(), acc)
	return pipeline, nil
}

// probeLayers times the analysis sub-layers standalone — work the
// pipeline does inside core.analyze — and reads the analysis outcome
// counters. Its spans hang under a "layerprobe" root so they are never
// mistaken for pipeline time.
func probeLayers(tr *tracer, op int, prog *types.Program, reports []*core.MethodReport, acc *layerAcc) {
	root := tr.begin("layerprobe", -1, op)
	defer tr.end(root)
	var methods []*types.Method
	for _, m := range prog.Methods {
		if m.Def != nil {
			methods = append(methods, m)
		}
	}
	acc.n("effects.methods_n", len(methods))

	ea := effects.NewAnalyzer(prog)
	s := tr.begin("effects.transitive", root, op)
	for _, m := range methods {
		ea.TransitiveEffects(m)
	}
	acc.ms("effects.transitive_ms", tr.end(s))

	s = tr.begin("extent.compute", root, op)
	sizes := 0
	for _, m := range methods {
		sizes += len(extent.Compute(ea, m, extent.Constants(ea, m)).Methods)
	}
	acc.ms("extent.compute_ms", tr.end(s))
	acc.n("extent.size_sum", sizes)

	// The symbolic half of the Figure-11 test, replayed over exactly the
	// pairs the analysis sent to it (deduplicated as its pair cache
	// does).
	type pairKey struct {
		m1, m2 int
		env    string
	}
	seen := map[pairKey]bool{}
	s = tr.begin("symbolic.pair_exec", root, op)
	for _, r := range reports {
		if r.Ext == nil || len(r.Pairs) == 0 {
			continue
		}
		aux := make(map[int]bool, len(r.Ext.Aux))
		for _, c := range r.Ext.Aux {
			aux[c.ID] = true
		}
		env := symbolic.NewEnv(prog, r.EC, aux)
		for _, pr := range r.Pairs {
			k := pairKey{pr.M1.ID, pr.M2.ID, env.Fingerprint()}
			if pr.Independent || seen[k] {
				continue
			}
			seen[k] = true
			if symbolic.Analyzable(pr.M1, env) != nil || symbolic.Analyzable(pr.M2, env) != nil {
				continue
			}
			// Errors are analysis outcomes here (the pair is then
			// rejected), not failures of the benchmark.
			_, _ = symbolic.ExecutePair(pr.M1, pr.M2, "1", "2", env)
			_, _ = symbolic.ExecutePair(pr.M2, pr.M1, "2", "1", env)
		}
	}
	acc.ms("symbolic.pair_exec_ms", tr.end(s))

	for _, r := range reports {
		acc.n("core.pairs_independent_n", r.IndependentPairs)
		acc.n("core.pairs_symbolic_n", r.SymbolicPairs)
		for _, pr := range r.Pairs {
			if pr.Pred != nil {
				acc.n("cond.residuals_n", 1)
			}
		}
		switch {
		case r.Parallel:
			acc.n("core.extents_proven_n", 1)
		case r.ConditionalEligible:
			acc.n("core.extents_guarded_n", 1)
		case r.SpeculationEligible:
			acc.n("core.extents_speculative_n", 1)
		default:
			acc.n("core.extents_serial_n", 1)
		}
	}
}
