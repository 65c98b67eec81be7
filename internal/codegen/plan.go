// Package codegen implements the code generation policy of §5 of
// Rinard & Diniz 1996 as an execution *plan*: which methods get
// parallel versions, which for loops become parallel loops (with the
// §5.2 nested-concurrency suppression), which call sites spawn tasks,
// and the lock optimizations of §5.4 (elimination and hoisting). The
// parallel executors (real runtime and DASH simulator) consume the
// plan; a source-to-source printer renders it as annotated output.
package codegen

import (
	"cmp"
	"maps"
	"slices"
	"strings"

	"commute/internal/analysis/effects"
	"commute/internal/cond"
	"commute/internal/core"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/nativert"
)

// SiteAction tells the executor what to do at a call site when running
// the parallel version of the enclosing method.
type SiteAction int

// Call-site actions.
const (
	ActionInline  SiteAction = iota // auxiliary: execute serially inline
	ActionSpawn                     // extent operation: spawn a task running the parallel version
	ActionHoisted                   // nested-object operation under the caller's hoisted lock: inline
	ActionSerial                    // site inside a serial method: plain call
	ActionReplica                   // accumulation on a global: inline, on the worker's replica (replicate)
)

// Version names the generated versions of an operation (§5.3) and, as
// VersionIteration, the context a parallel-loop claimant runs the loop
// body in.
type Version int

// The versions.
const (
	VersionSerial Version = iota
	VersionParallel
	VersionMutex
	VersionIteration
)

// SiteCall is what a call site does inside a region: the version of the
// callee it runs, whether that runs as a spawned task rather than on the
// caller's stack, whether it runs on the executing worker's replica of
// its receiver (a global) rather than on the receiver itself, and whether
// the caller lets go of its receiver lock — if it holds it — first. A
// spawned, mutex or replica call returns nothing to the caller; a serial
// version otherwise returns its value.
type SiteCall struct {
	Run     Version
	Spawn   bool
	Replica bool
	Release bool
}

// Call is the in-region call rule (§5.3, §5.4.2): what the site, one of
// mp's method, does when the body runs as version in; callee is the
// callee's plan (nil: it has none). The interpreter runtime, the tracer,
// the Go emitter and the source printer switch on the answer and decide
// nothing themselves.
//
//	site \ in   parallel             mutex            iteration
//	inline      serial               serial           serial
//	hoisted     serial               serial           mutex
//	spawn       parallel, spawned,   mutex,           mutex
//	            release              release
//	replica     serial on replica,   serial on        serial on
//	            release              replica, release replica
//	(coarse)    as above             serial           as above
//
// An inline or hoisted site runs the serial version — a body whose own
// call sites are all serial and whose loops are all serial, whatever
// region it was reached from: an auxiliary operation executes serially,
// and a hoisted one runs under the lock its caller holds through. The
// exception is a loop claimant: it is not the goroutine holding that
// lock, so an extent operation it invokes locks for itself. Release is
// set unless the operation holds its lock through. A callee with no
// parallel plan — a speculative extent's site map can name one — runs
// its serial version wherever the table says parallel or mutex, spawned
// where the table spawns. A replica site is an extent site the planner
// replicated (replicate): the callee, a pure additive accumulator, runs
// its serial version on the executing worker's zeroed replica of the
// global it was called on, and the region's join folds the replicas back.
// A journaled body runs it as the callee's mutex version, which its
// journal isolates. The mutex version of a Coarse method is its serial
// version under the receiver lock (coarsen): every site of it runs the
// serial version and nothing lets go of the lock. Everything called from
// a serial version is a serial version.
func (mp *MethodPlan) Call(in Version, site *types.CallSite, callee *MethodPlan) SiteCall {
	act := ActionSerial
	if in != VersionSerial && (in != VersionMutex || !mp.Coarse) {
		act = mp.Site[site.ID]
	}
	extent := act == ActionSpawn || act == ActionReplica || act == ActionHoisted && in == VersionIteration
	if !extent {
		return SiteCall{Run: VersionSerial}
	}
	sc := SiteCall{Run: VersionMutex}
	switch {
	case act == ActionReplica:
		sc = SiteCall{Run: VersionSerial, Replica: true}
	case in == VersionParallel:
		sc = SiteCall{Run: VersionParallel, Spawn: true}
	}
	if callee == nil || !callee.Parallel {
		sc.Run = VersionSerial
	}
	sc.Release = in != VersionIteration && !mp.HoldsLockThrough
	return sc
}

// MethodPlan is the per-method code generation decision.
type MethodPlan struct {
	Method *types.Method
	// Parallel is true when the analysis marked the method parallel
	// (the compiler generates serial, parallel, and mutex versions).
	Parallel bool
	// NeedsLock is true when the parallel/mutex versions acquire the
	// receiver's mutual-exclusion lock around the object section
	// (§5.4.1 eliminates it for operations that only compute extent
	// constant values).
	NeedsLock bool
	// HoldsLockThrough is true when lock hoisting (§5.4.2) applies: the
	// operation holds the receiver lock across both sections and runs
	// invoked nested-object operations inline.
	HoldsLockThrough bool
	// NoHoist says why an operation whose extent invocations are all on
	// nested objects of its receiver does not hold its lock through
	// (hoistEscape); such an operation is planned like a mixed one.
	NoHoist string
	// Replicable is true when the operation is planned with a lock and is
	// a pure additive accumulator (accumulates): run on a zeroed replica
	// of its receiver, it leaves there exactly what it adds. Such
	// operations can execute against per-worker replicas folded at the
	// region's join — the optimization §6.3.4 proposes to eliminate
	// Water's contention, which replicate applies where it is sound.
	Replicable bool
	// Coarse is computation lock coarsening (coarsen, Options.Contention):
	// everything the serial version reaches stays on the receiver and its
	// nested objects, so the mutex version takes the receiver lock once and
	// runs the serial version beneath it, instead of one lock per operation
	// it invokes. Coarse sets NeedsLock. NoCoarsen says why an operation
	// that invokes an extent operation on its own receiver is not Coarse.
	Coarse    bool
	NoCoarsen string
	// Site maps call-site IDs within this method to their actions when
	// executing the parallel (or mutex) version.
	Site map[int]SiteAction

	// Speculative marks a method planned for optimistic execution: its
	// extent failed the static commutativity test, so its parallel
	// version runs under effect monitoring with per-task write
	// buffering and rollback instead of locks (Options.SpeculateRejected).
	Speculative bool
	// Conditional marks a method of a conditionally commutative extent
	// (Options.ConditionalGuards): the static test failed, but every
	// failing pair synthesized a residual predicate whose guardable
	// weakening is Guard. The region entry evaluates Guard — true runs
	// the proven-style parallel lowering planned here (locks, spawns,
	// hoisting), false takes the serial path. Guard takes precedence
	// over speculation; a guard-false region may still speculate when
	// the policy forces it and SpecEligible holds.
	Conditional bool
	// Guard is the predicate gating the parallel lowering, checked
	// against the program when the plan was built, so both runtimes
	// render it without a failure path; non-nil exactly when Conditional
	// is set.
	Guard *cond.Checked
	// SpecEligible, Confidence, and Condition copy the method's own
	// analysis report so the runtime's speculation policy (auto mode
	// with a confidence threshold) can decide at region entry without
	// reaching back into the analysis.
	SpecEligible bool
	Confidence   float64
	Condition    string
	// SpecReads and SpecWrites are the declared transitive effects of
	// the computation rooted at this method (extent operations plus
	// auxiliary callees); the speculation validator checks every
	// observed object-field access against them.
	SpecReads  *effects.Set
	SpecWrites *effects.Set

	// Work is the static upper bound on the DASH cost units one serial
	// execution of the method charges, callees included (work.go):
	// WorkUnbounded when no compile-time constant bounds it, zero when no
	// estimate was made. A region root whose Work is under a runtime's
	// region-entry cost is not worth a region there (WorkUnder), and that
	// runtime runs its serial version instead. Final when the builder
	// returns: concurrent runs share the plan.
	Work int64
}

// LoopPlan is the decision for one candidate loop: a for loop in a
// parallel method whose body is local bookkeeping and invocations of
// parallel methods (§5.1). Whether a for statement runs as a parallel
// loop is decided here and nowhere else: both runtimes, the tracer and
// the printers read it. Final when the builder returns.
type LoopPlan struct {
	Method *types.Method
	Stmt   *ast.ForStmt
	// Parallel is true when the loop executes with guided
	// self-scheduling: it is legal (Reason is empty) and the §5.2
	// heuristic did not suppress it (Nested: dynamically nested inside
	// another candidate loop).
	Parallel bool
	Nested   bool
	// Header is the loop's counted header — variable, bound and step of
	// the iteration space the runtimes hand out — zero when it has none.
	// Reason says why a candidate may not run its iterations out of
	// order (loopLegality); such a loop is serial under every option.
	Header ast.CountedLoop
	Reason string
	// Name labels the loop for reports (enclosing method name).
	Name string
}

// Plan is the whole-program code generation result.
type Plan struct {
	Prog    *types.Program
	Opt     Options
	Methods map[*types.Method]*MethodPlan
	Loops   map[*ast.ForStmt]*LoopPlan

	// LoopsFound and LoopsSuppressed reproduce the §6.2.2/§6.3.2
	// statistics (candidate loops detected vs. nested loops suppressed);
	// LoopsRefused counts the candidates left that are not legal, so
	// found - suppressed - refused loops are Parallel.
	LoopsFound      int
	LoopsSuppressed int
	LoopsRefused    int

	// LockedClasses lists the classes whose declarations keep a
	// mutual-exclusion lock after the §5.4.1 elimination.
	LockedClasses map[*types.Class]bool

	// Replicas lists, in program order, the sites replicate considered
	// (Options.Contention), and Folds, by the class of a global
	// some ActionReplica site accumulates into, the fields a region's join
	// folds back from the workers' replicas of it, in slot order.
	Replicas []ReplicaSite
	Folds    map[*types.Class][]interp.FieldInfo
}

// Options tune the code generation policy (used by the ablation
// benchmarks).
type Options struct {
	// DisableHoisting turns off the §5.4.2 lock hoisting: nested-object
	// operations are spawned/locked individually.
	DisableHoisting bool
	// DisableSuppression turns off the §5.2 suppression of nested
	// concurrency: dynamically nested legal loops stay parallel.
	DisableSuppression bool
	// Contention enables the two optimizations that take lock contention
	// off an extent without changing what its parallel version spawns: the
	// §6.3.4 replication — a call of a pure additive accumulator on a
	// global object runs, inside a region, on the executing worker's
	// replica of the object, and the region's join folds the replicas back
	// (replicate) — and computation lock coarsening — a mutex version that
	// stays on its receiver holds the receiver lock once, through its
	// serial version (coarsen). The plan every execution runs
	// (commute.System.Plan) sets it; the paper's configuration (Build)
	// does not.
	Contention bool
	// SpeculateRejected extends the plan with speculative parallel
	// versions for extents that failed only the pairwise commutativity
	// test (core.MethodReport.SpeculationEligible). Methods covered by
	// a proven extent keep their proven plans; the additional methods
	// are marked MethodPlan.Speculative and carry the confidence score
	// and declared effects the runtime's monitor validates against.
	SpeculateRejected bool
	// ConditionalGuards extends the plan with guarded parallel versions
	// for extents whose rejection carries a satisfiable guardable
	// residual (core.MethodReport.ConditionalEligible): the methods are
	// planned exactly like a proven extent (locks, spawns, hoisting,
	// parallel loops) but marked Conditional with the guard predicate;
	// the runtime evaluates the guard at region entry and falls back to
	// the serial path when it does not hold. Precedence when a method
	// belongs to several extents: proven > conditional > speculative.
	ConditionalGuards bool
}

// Build computes the paper's configuration of the plan: proven extents
// only, every lock taken. Only the paper's tables and figures read it.
func Build(a *core.Analysis) *Plan { return BuildWithOptions(a, Options{}) }

// BuildWithOptions computes the plan with explicit policy options.
func BuildWithOptions(a *core.Analysis, opt Options) *Plan {
	p := &Plan{
		Prog:          a.Prog,
		Opt:           opt,
		Methods:       make(map[*types.Method]*MethodPlan),
		Loops:         make(map[*ast.ForStmt]*LoopPlan),
		LockedClasses: make(map[*types.Class]bool),
	}
	reports := a.AnalyzeAll()
	byMethod := make(map[*types.Method]*core.MethodReport, len(reports))
	for _, r := range reports {
		byMethod[r.Method] = r
	}

	// Tiers: a method has a parallel version when some extent that
	// contains it has a tier, and the paper generates the three versions
	// for every method of such an extent. A method belonging to several is
	// planned by the first, in report order, of the highest tier. Proven:
	// the analysis marked the extent parallel. Conditional
	// (Options.ConditionalGuards): the extent failed only at the pair
	// stage, every failing pair synthesized a residual, and the weakened
	// guard passes cond.Check against the program. This is the one place
	// a guard is checked; one the check refuses could not be evaluated at
	// region entry, and its extent is planned as though it had none.
	// Speculative (Options.SpeculateRejected): the extent failed only at
	// the pair stage. An extent's auxiliary sites count for every tier it
	// qualifies for.
	resolve := func(ref cond.FieldRef) (cond.Kind, bool) { return ResolveGuardRef(a.Prog, ref) }
	claims := make(map[*types.Method]claim)
	var aux [tierProven + 1]map[int]bool
	for t := range aux {
		aux[t] = make(map[int]bool)
	}
	for _, r := range reports {
		c := claim{r: r}
		qualify := func(t tier) {
			c.tier = t
			for _, s := range r.Ext.Aux {
				aux[t][s.ID] = true
			}
		}
		if r.Parallel {
			qualify(tierProven)
		} else {
			if opt.SpeculateRejected && r.SpeculationEligible {
				qualify(tierSpeculative)
			}
			if opt.ConditionalGuards && r.ConditionalEligible {
				if g, err := cond.Check(r.Guard, resolve); err == nil {
					c.guard = g
					qualify(tierConditional)
				}
			}
		}
		if c.tier == tierNone {
			continue
		}
		for _, m := range r.Ext.Methods {
			if old, ok := claims[m]; !ok || old.tier < c.tier {
				claims[m] = c
			}
		}
	}

	work := methodWork(a)
	for _, m := range a.Prog.Methods {
		if m.Def == nil {
			continue
		}
		mp := &MethodPlan{Method: m, Site: make(map[int]SiteAction), Work: work[m.ID]}
		p.Methods[m] = mp
		c, ok := claims[m]
		if !ok {
			for _, cs := range m.CallSites {
				mp.Site[cs.ID] = ActionSerial
			}
			continue
		}
		mp.Parallel = true
		info := a.Eff.Info(m)
		if c.tier != tierProven {
			// An unproven extent carries its speculation metadata: a
			// speculative region needs it, and so does a guard-false
			// conditional region a forcing policy speculates.
			mp.Conditional, mp.Guard = c.tier == tierConditional, c.guard
			mp.Speculative = c.tier == tierSpeculative
			if own := byMethod[m]; own != nil {
				mp.SpecEligible = own.SpeculationEligible
				mp.Confidence = own.Confidence
				mp.Condition = own.Condition
			}
			te := a.Eff.TransitiveEffects(m)
			mp.SpecReads, mp.SpecWrites = effects.NewSet(), effects.NewSet()
			mp.SpecReads.AddAll(te.Reads)
			mp.SpecWrites.AddAll(te.Writes)
		}

		// §5.4.1 lock elimination: operations whose object section
		// writes nothing need no lock. A speculative version takes none:
		// isolation comes from the per-task write buffers, and a detected
		// conflict aborts the whole region before any buffered write
		// reaches the heap.
		if !mp.Speculative {
			for _, d := range info.Writes.Slice() {
				if d.Space == effects.DescField {
					mp.NeedsLock = true
					break
				}
			}
		}

		// Call-site actions: auxiliary sites run inline, invocations on
		// nested objects of the receiver are hoisting's to decide, the
		// rest spawn.
		for i := range info.Calls {
			cc := &info.Calls[i]
			id := cc.Site.ID
			switch {
			case aux[c.tier][id] || c.r.Ext.IsAux(cc.Site):
				mp.Site[id] = ActionInline
			case cc.Recv.Kind == effects.RecvNested && cc.Recv.ViaThis:
				mp.Site[id] = ActionHoisted
			default:
				mp.Site[id] = ActionSpawn
			}
		}
	}

	p.hoistLocks()
	p.findLoops()
	if opt.Contention {
		p.replicate(a)
		p.coarsen()
	}
	p.computeLockedClasses()
	return p
}

// tier is how an extent's methods run, in increasing precedence.
type tier int

const (
	tierNone tier = iota
	tierSpeculative
	tierConditional
	tierProven
)

// claim is the extent a method is planned by: the extent's report, its
// tier, and for a conditional extent its checked guard.
type claim struct {
	tier  tier
	r     *core.MethodReport
	guard *cond.Checked
}

// hoistLocks applies §5.4.2 lock hoisting to the methods planned with
// locks: when every extent invocation targets a nested object of the
// receiver, the operation's customized version holds the receiver lock
// across both sections and runs the nested operations inline (acquiring
// the lock even when its own object section would not need one, so the
// nested objects need no locks of their own) — where running them inline
// is sound (hoistEscape). Everywhere else nested-object invocations need
// their own atomicity, and are spawned like other extent calls.
func (p *Plan) hoistLocks() {
	locking := func(mp *MethodPlan) bool { return mp.Parallel && !mp.Speculative }
	for m, mp := range p.Methods {
		if !locking(mp) || p.Opt.DisableHoisting || m.Class == nil || !nestedOnly(mp) {
			continue
		}
		if site := p.hoistEscape(m, false); site != nil {
			mp.NoHoist = escapeReason(site)
			continue
		}
		mp.HoldsLockThrough = true
		mp.NeedsLock = true
	}
	// The site maps change only now: every decision above read them as
	// first written.
	for m, mp := range p.Methods {
		if !locking(mp) {
			continue
		}
		mp.Replicable = mp.NeedsLock && accumulates(p.Prog, m) != nil
		if !mp.HoldsLockThrough {
			for id, act := range mp.Site {
				if act == ActionHoisted {
					mp.Site[id] = ActionSpawn
				}
			}
		}
	}
}

// nestedOnly reports whether mp's method invokes extent operations, and
// only on nested objects of its receiver.
func nestedOnly(mp *MethodPlan) bool {
	nested := false
	for _, act := range mp.Site {
		if act == ActionSpawn {
			return false
		}
		nested = nested || act == ActionHoisted
	}
	return nested
}

// hoistEscape is the legality half of §5.4.2: holding m's lock through
// runs the operations at m's hoisted sites as plain serial code, and what
// they invoke in turn, so it is sound only if every operation reached that
// way, m included, invokes nothing but operations on nested objects of its
// own receiver and auxiliaries — all of it stays under the one lock. It
// returns the first call site that leaves, nil when none does. The rule
// reads the site maps alone, a nested-object invocation being the one
// marked ActionHoisted. With self set it is coarsening's walk (coarsen): an extent invocation on the
// caller's own receiver stays under the one lock too, and is walked into
// like a nested one.
func (p *Plan) hoistEscape(m *types.Method, self bool) *types.CallSite {
	seen := make(map[*types.Method]bool)
	var walk func(m *types.Method) *types.CallSite
	walk = func(m *types.Method) *types.CallSite {
		mp := p.Methods[m]
		if seen[m] || mp == nil {
			return nil
		}
		seen[m] = true
		for _, cs := range m.CallSites {
			switch act := mp.Site[cs.ID]; {
			case act == ActionInline:
			case act == ActionHoisted, self && act == ActionSpawn && onThis(cs):
				if site := walk(cs.Callee); site != nil {
					return site
				}
			default:
				return cs
			}
		}
		return nil
	}
	return walk(m)
}

// onThis reports whether a call site invokes a method on the caller's own
// receiver, `this->m()` or an implicit `m()` (effects.RecvThis).
func onThis(cs *types.CallSite) bool {
	if cs.Callee.Class == nil {
		return false
	}
	_, this := cs.Call.Recv.(*ast.ThisExpr)
	return this || cs.Call.Recv == nil
}

// escapeReason words a hoistEscape site for reports.
func escapeReason(site *types.CallSite) string {
	return site.Caller.FullName() + " invokes " + site.Callee.FullName() + " outside the receiver"
}

// coarsen applies computation lock coarsening (Diniz & Rinard's follow-up
// to this paper) to the operations planned with locks that invoke an
// extent operation on their own receiver. Where every site the serial
// version reaches, transitively, is auxiliary, hoisted or another
// invocation on the receiver (hoistEscape with self), the computation
// touches nothing but the receiver and its nested objects: the mutex
// version takes the receiver lock once and runs the serial version
// beneath it (Coarse), rather than one lock per operation it invokes. It
// holds one lock and runs only serial versions, which take none, so it
// cannot deadlock; aliased receivers serialize whole computations instead
// of single operations. The parallel version spawns and loops as before
// (holding the receiver lock NeedsLock now asks for up to its first
// release), so every region root, spawn and loop is unchanged. A replica
// site or an invocation on any other object in reach refuses it
// (NoCoarsen).
func (p *Plan) coarsen() {
	for m, mp := range p.Methods {
		if !mp.Parallel || mp.Speculative || !spawnsOnThis(mp, m) {
			continue
		}
		site := p.hoistEscape(m, true)
		switch {
		case site == nil:
			mp.Coarse, mp.NeedsLock = true, true
		case p.Methods[site.Caller].Site[site.ID] == ActionReplica:
			mp.NoCoarsen = site.Caller.FullName() + " runs " + site.Callee.FullName() + " on a replica"
		default:
			mp.NoCoarsen = escapeReason(site)
		}
	}
}

// spawnsOnThis reports whether mp's method has an extent site on its own
// receiver: the candidates coarsen walks.
func spawnsOnThis(mp *MethodPlan, m *types.Method) bool {
	for _, cs := range m.CallSites {
		if mp.Site[cs.ID] == ActionSpawn && onThis(cs) {
			return true
		}
	}
	return false
}

// computeLockedClasses decides which class declarations keep their
// mutual-exclusion lock (§5.4.1): a class is locked when some
// lock-acquiring operation with that receiver class can execute under
// concurrency — it is a spawn target, a parallel-loop body callee
// (iterations run mutex versions, which still lock), or reachable from
// one through further spawn-action sites. Operations that only ever run
// hoisted under an enclosing lock contribute nothing, which is exactly
// how hoisting eliminates the nested-object locks.
func (p *Plan) computeLockedClasses() {
	seeds := make(map[*types.Method]bool)
	for caller, mp := range p.Methods {
		if !mp.Parallel {
			continue
		}
		for _, cs := range caller.CallSites {
			if mp.Site[cs.ID] == ActionSpawn {
				seeds[cs.Callee] = true
			}
		}
	}
	for _, lp := range p.Loops {
		if !lp.Parallel {
			continue
		}
		for _, cs := range loopSites(p.Prog, lp.Stmt) {
			if cp := p.Methods[cs.Callee]; cp != nil && cp.Parallel {
				seeds[cs.Callee] = true
			}
		}
	}
	// Closure over spawn-action sites: in mutex versions those targets
	// run serially but still acquire their locks.
	work := make([]*types.Method, 0, len(seeds))
	for m := range seeds {
		work = append(work, m)
	}
	reached := make(map[*types.Method]bool, len(seeds))
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[m] {
			continue
		}
		reached[m] = true
		mp := p.Methods[m]
		if mp == nil {
			continue
		}
		for _, cs := range m.CallSites {
			if mp.Site[cs.ID] == ActionSpawn && !reached[cs.Callee] {
				work = append(work, cs.Callee)
			}
		}
	}
	for m := range reached {
		if mp := p.Methods[m]; mp != nil && mp.NeedsLock && m.Class != nil {
			p.LockedClasses[m.Class] = true
		}
	}
}

// findLoops detects parallel loops (§5.1) and applies the §5.2
// suppression of nested concurrency.
func (p *Plan) findLoops() {
	// Candidate loops: for loops in parallel methods whose bodies
	// contain only local bookkeeping and invocations of parallel
	// methods.
	var candidates []*LoopPlan
	for m, mp := range p.Methods {
		if !mp.Parallel {
			continue
		}
		ast.Inspect(m.Def.Body, func(n ast.Node) bool {
			fs, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if lp := p.candidateLoop(m, fs); lp != nil {
				candidates = append(candidates, lp)
				p.Loops[fs] = lp
				return false // do not doubly classify nested loops
			}
			return true
		})
	}
	slices.SortFunc(candidates, func(a, b *LoopPlan) int {
		pa, pb := a.Stmt.Pos(), b.Stmt.Pos()
		return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(pa.Line, pb.Line), cmp.Compare(pa.Col, pb.Col))
	})
	p.LoopsFound = len(candidates)

	// A loop is nested when its enclosing method is reachable from the
	// extent of another candidate loop's body invocations: through the
	// sites the call rule does not answer with the serial version, whose
	// loops are serial whoever calls it.
	reach := func(from *LoopPlan) map[*types.Method]bool {
		out := make(map[*types.Method]bool)
		var visit func(in Version, mp *MethodPlan, sites []*types.CallSite)
		visit = func(in Version, mp *MethodPlan, sites []*types.CallSite) {
			for _, cs := range sites {
				cp := p.Methods[cs.Callee]
				if mp.Call(in, cs, cp).Run != VersionSerial && !out[cs.Callee] {
					out[cs.Callee] = true
					visit(VersionMutex, cp, cs.Callee.CallSites)
				}
			}
		}
		visit(VersionIteration, p.Methods[from.Method], loopSites(p.Prog, from.Stmt))
		return out
	}
	for _, lp := range candidates {
		r := reach(lp)
		for _, other := range candidates {
			if other != lp && r[other.Method] {
				other.Nested = true
			}
		}
	}
	for _, lp := range candidates {
		switch {
		case lp.Nested && !p.Opt.DisableSuppression:
			p.LoopsSuppressed++
		case lp.Reason != "":
			p.LoopsRefused++
		default:
			lp.Parallel = true
		}
	}
}

// RegionRoot reports whether a call of m from serial code is a region
// entry: m has a parallel version, running it generates concurrency, and
// m returns no value. §4's operations return none, and the root of a
// region is one of them: a method whose caller may use its value is
// called from serial code as the serial code it is, result and all, on
// both runtimes and in the tracer. Whether an entry then opens its region
// is the entry rule's to say (nativert.Policy.Enter, after each runtime's
// granularity cutoff).
func (p *Plan) RegionRoot(m *types.Method) bool {
	mp := p.Methods[m]
	return mp != nil && mp.Parallel && isVoid(m.Ret) && p.GeneratesConcurrency(m)
}

// EntryFacts is what the entry rule reads of a region root's plan.
func (mp *MethodPlan) EntryFacts() nativert.Root {
	return nativert.Root{
		Proven:       !mp.Conditional && !mp.Speculative,
		Conditional:  mp.Conditional,
		SpecEligible: mp.SpecEligible,
		Confidence:   mp.Confidence,
	}
}

// GeneratesConcurrency reports whether the parallel version of m itself
// spawns a task or starts a parallel loop — i.e. whether a serial caller
// must open a parallel region for it: some site of m at which the call
// rule spawns, or a parallel loop of m. Nothing below m counts: a site
// that does not spawn runs the callee's serial version, which neither
// spawns nor starts a loop.
func (p *Plan) GeneratesConcurrency(m *types.Method) bool {
	mp := p.Methods[m]
	if mp == nil || !mp.Parallel {
		return false
	}
	for _, cs := range m.CallSites {
		if mp.Call(VersionParallel, cs, p.Methods[cs.Callee]).Spawn {
			return true
		}
	}
	for _, lp := range p.Loops {
		if lp.Method == m && lp.Parallel {
			return true
		}
	}
	return false
}

// ResolveGuardRef resolves a guard field reference against the
// program: the named global must exist and its class chain must
// declare a field with the referenced name whose declaring class
// matches and whose type is a basic scalar a guard reads (int, double,
// bool). It gives that field's kind.
func ResolveGuardRef(prog *types.Program, ref cond.FieldRef) (cond.Kind, bool) {
	g := prog.Globals[ref.Global]
	if g == nil {
		return 0, false
	}
	for c := g.Class; c != nil; c = c.Base {
		for _, f := range c.Fields {
			if f.Name != ref.Field || f.Class.Name != ref.Class {
				continue
			}
			switch f.Type {
			case types.Basic(types.Int):
				return cond.KInt, true
			case types.Basic(types.Double):
				return cond.KFloat, true
			case types.Basic(types.Bool):
				return cond.KBool, true
			}
			return 0, false
		}
	}
	return 0, false
}

// loopSites returns the call sites directly in a loop body.
func loopSites(prog *types.Program, fs *ast.ForStmt) []*types.CallSite {
	var out []*types.CallSite
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && !c.Builtin && c.Site >= 0 {
			out = append(out, prog.CallSites[c.Site])
		}
		return true
	})
	return out
}

// candidateLoop returns the plan entry of a for loop of m that is a
// parallel-loop candidate, its legality decided (Header or Reason); nil
// when the body is not that of a candidate.
func (p *Plan) candidateLoop(m *types.Method, fs *ast.ForStmt) *LoopPlan {
	if !p.loopBodyParallelizable(m, fs) {
		return nil
	}
	lp := &LoopPlan{Method: m, Stmt: fs, Name: m.FullName()}
	lp.Header, lp.Reason = p.loopLegality(m, fs)
	return lp
}

// loopLegality decides whether the iterations of a candidate loop may
// run in any order, each claimant on its own copy of the frame, and
// still leave what the serial loop leaves — the paper's "the loop body
// contains only invocations" for bodies that also keep locals. It
// returns the counted header, and the reason when the answer is no:
//
//   - the header is `v = a; v < b; v += s` (ast.MatchCountedLoop) with v
//     an int and b a pure int expression that does not read v;
//   - the body assigns neither v nor a local b reads, so the iteration
//     space is what the header says;
//   - every local the body assigns is assigned on every path before the
//     body reads it (no iteration sees another's value) and is read
//     nowhere else in the method (nobody sees the last iteration's). A
//     read ahead of the loop counts: an enclosing loop puts it after. A
//     plain store outside the body is harmless.
//
// loopBodyParallelizable has limited the body to blocks, declarations,
// expression statements and ifs, and its assignments to locals.
func (p *Plan) loopLegality(m *types.Method, fs *ast.ForStmt) (ast.CountedLoop, string) {
	isInt := func(e ast.Expr) bool { return p.Prog.TypeOf(e) == types.Int }
	h, ok := ast.MatchCountedLoop(fs)
	if !ok || !isInt(h.Var) || !ast.Pure(h.Bound) || !isInt(h.Bound) ||
		firstVar(h.Bound, func(name string) bool { return name == h.Var.Name }) != "" {
		return ast.CountedLoop{}, "header is not a counted loop"
	}
	assigned := ast.AssignedVars(fs.Body)
	if len(assigned) == 0 {
		return h, "" // invocations only: nothing to carry, nothing to leave
	}
	if assigned[h.Var.Name] {
		return h, "body assigns loop variable " + h.Var.Name
	}
	if name := firstVar(h.Bound, func(name string) bool { return assigned[name] }); name != "" {
		return h, "bound reads " + name + ", assigned in the body"
	}
	if name := carried(fs.Body, assigned); name != "" {
		return h, name + " carried across iterations"
	}
	// The rest of the method, in source order: a plain store is walked
	// past its target, the loop body not at all.
	reason, after := "", false
	var outside func(n ast.Node) bool
	outside = func(n ast.Node) bool {
		if n == ast.Node(fs.Body) {
			after = true
			return false
		}
		switch x := n.(type) {
		case *ast.Assign:
			if _, plain := x.LHS.(*ast.Ident); plain && x.Op == token.ASSIGN {
				ast.Inspect(x.RHS, outside)
				return false
			}
		case *ast.Ident:
			if reason == "" && assigned[x.Name] && (x.Sym == ast.SymLocal || x.Sym == ast.SymParam) {
				reason = x.Name + " read before the loop"
				if after {
					reason = x.Name + " read after the loop"
				}
			}
		}
		return true
	}
	ast.Inspect(m.Def.Body, outside)
	return h, reason
}

// firstVar returns the name of the first local or parameter n mentions
// whose name satisfies is, "" when there is none.
func firstVar(n ast.Node, is func(name string) bool) string {
	name := ""
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if ok && name == "" && (id.Sym == ast.SymLocal || id.Sym == ast.SymParam) && is(id.Name) {
			name = id.Name
		}
		return name == ""
	})
	return name
}

// carried returns the first local of assigned that the loop body may
// read before the same iteration has assigned it — a value carried from
// one iteration to the next — or "". Only a declaration and a plain
// assignment statement assign definitely; an if assigns what both of
// its arms assign.
func carried(body ast.Stmt, assigned map[string]bool) string {
	name := ""
	read := func(e ast.Expr, def map[string]bool) {
		if name == "" {
			name = firstVar(e, func(v string) bool { return assigned[v] && !def[v] })
		}
	}
	var stmt func(s ast.Stmt, def map[string]bool)
	stmt = func(s ast.Stmt, def map[string]bool) {
		switch st := s.(type) {
		case *ast.Block:
			for _, sub := range st.Stmts {
				stmt(sub, def)
			}
		case *ast.DeclStmt:
			if st.Init != nil {
				read(st.Init, def)
			}
			def[st.Name] = true
		case *ast.ExprStmt:
			if asn, ok := st.X.(*ast.Assign); ok && asn.Op == token.ASSIGN {
				if id, ok := asn.LHS.(*ast.Ident); ok {
					read(asn.RHS, def)
					def[id.Name] = true
					return
				}
			}
			read(st.X, def)
		case *ast.IfStmt:
			read(st.Cond, def)
			then, els := maps.Clone(def), maps.Clone(def)
			stmt(st.Then, then)
			if st.Else != nil {
				stmt(st.Else, els)
			}
			for v := range then {
				def[v] = def[v] || els[v]
			}
		}
	}
	stmt(body, make(map[string]bool))
	return name
}

// loopBodyParallelizable reports whether a loop body consists only of
// local declarations/assignments and invocations of parallel methods
// (possibly guarded by conditionals).
func (p *Plan) loopBodyParallelizable(m *types.Method, fs *ast.ForStmt) bool {
	hasInvocation := false
	okBody := true
	var checkStmt func(s ast.Stmt)
	var checkExpr func(e ast.Expr, stmtPos bool)
	checkStmt = func(s ast.Stmt) {
		if !okBody {
			return
		}
		switch st := s.(type) {
		case *ast.Block:
			for _, sub := range st.Stmts {
				checkStmt(sub)
			}
		case *ast.DeclStmt:
			// fine
		case *ast.ExprStmt:
			checkExpr(st.X, true)
		case *ast.IfStmt:
			checkStmt(st.Then)
			if st.Else != nil {
				checkStmt(st.Else)
			}
		default:
			okBody = false
		}
	}
	checkExpr = func(e ast.Expr, stmtPos bool) {
		switch x := e.(type) {
		case *ast.Assign:
			// Local bookkeeping only.
			if id, ok := x.LHS.(*ast.Ident); !ok || id.Sym != ast.SymLocal {
				okBody = false
				return
			}
			if c, isCall := x.RHS.(*ast.CallExpr); isCall && !c.Builtin {
				// Value-returning calls in the body must be auxiliary
				// (they execute inline); treat them as bookkeeping.
				return
			}
		case *ast.CallExpr:
			if x.Builtin {
				okBody = false
				return
			}
			site := p.Prog.CallSites[x.Site]
			calleePlan := p.Methods[site.Callee]
			if calleePlan == nil || !calleePlan.Parallel {
				// Auxiliary invocations are allowed; extent invocations
				// must have parallel versions.
				if act, ok := p.Methods[m].Site[x.Site]; ok && act == ActionInline {
					return
				}
				okBody = false
				return
			}
			hasInvocation = true
		default:
			okBody = false
		}
	}
	checkStmt(fs.Body)
	return okBody && hasInvocation
}
