package codegen

// Per-method-version emission: signatures, lock discipline, statements,
// serial loops, and guided-self-scheduling compilation of
// planned-parallel counted loops.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"commute/internal/analysis/effects"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
)

// emitMode is the execution context a function body compiles under;
// it decides call-site dispatch and loop lowering. The version table
// (versions) says which mode each version's body compiles under.
type emitMode int

const (
	mS emitMode = iota // serial engine
	mD                 // serial context of the parallel engine
	mP                 // parallel version root
	mX                 // mutex version root
	mI                 // parallel-loop iteration context
	mQ                 // inline callee under a parallel context
)

// fnCtx is the single-function emission state.
type fnCtx struct {
	e    *goEmitter
	m    *types.Method
	mp   *MethodPlan
	mode emitMode

	// spec: the body is a journaled speculative version — every field
	// and element access routes through sj_ (*nativert.SpecJournal),
	// no locks are taken (journals provide isolation), and parallel
	// loops lower to nativert.SpecGSS.
	spec bool

	// locked: the P_/X_ prologue acquired the receiver lock.
	// releaseBeforeSpawn mirrors rt.callVersion: locked and not
	// holding through, so spawn sites and parallel loops release it.
	locked             bool
	releaseBeforeSpawn bool

	b      strings.Builder
	indent int
	tmp    int
}

func (c *fnCtx) line(format string, args ...any) {
	c.b.WriteString(strings.Repeat("\t", c.indent))
	fmt.Fprintf(&c.b, format, args...)
	c.b.WriteByte('\n')
}

func (c *fnCtx) errf(format string, args ...any) {
	c.e.errorf("%s: %s", c.m.FullName(), fmt.Sprintf(format, args...))
}

// emitFn renders one method version as Go source.
func (e *goEmitter) emitFn(m *types.Method, v variant) string {
	if v == varR {
		return e.emitRegionWrapper(m)
	}
	c := &fnCtx{e: e, m: m, mp: e.plan.Methods[m], mode: versions[v].mode, spec: specVariant(v)}
	c.b.WriteString(e.fnSignature(m, v))
	c.b.WriteString(" {\n")
	c.indent = 1

	if v == varJP {
		// rt.callVersion's entry fast path: once some task failed, the
		// region aborts regardless, so stop journaling work.
		c.line("if sr_.Failed() {")
		c.line("\treturn")
		c.line("}")
	}

	// Hoisted frame locals (interpreter frames allocate every local up
	// front; DeclStmt re-zeroes its slot on execution).
	frame := e.frames[m]
	locals := frame[len(m.Params):]
	if len(locals) > 0 {
		var names []string
		var rows [][]string
		for _, l := range locals {
			names = append(names, "v_"+l.Name)
			rows = append(rows, []string{"v_" + l.Name, e.goType(l.Type, false)})
		}
		c.line("var (")
		alignRows(&c.b, "\t\t", rows)
		c.line(")")
		c.line("%s = %s", strings.Repeat("_, ", len(locals)-1)+"_", strings.Join(names, ", "))
	}

	// Lock prologue for parallel/mutex versions (rt.callVersion:
	// locked = NeedsLock && recv != nil). Speculative versions never
	// lock — the journals provide the isolation.
	if (c.mode == mP || c.mode == mX) && !c.spec && c.mp != nil && c.mp.NeedsLock && m.Class != nil {
		e.muRoots[chainRoot(m.Class)] = true
		c.locked = true
		c.releaseBeforeSpawn = !c.mp.HoldsLockThrough
		c.line("o.mu_.Lock()")
		c.line("lockHeld_ := true")
		c.line("defer func() {")
		c.line("\tif lockHeld_ {")
		c.line("\t\to.mu_.Unlock()")
		c.line("\t}")
		c.line("}()")
		if c.mode == mP {
			// rel_ is passed to Q_ callees so planned-parallel loops
			// inside inline callees release the extent lock exactly
			// where the interpreter's loop hook would.
			c.line("rel_ := func() {")
			c.line("\tif lockHeld_ {")
			c.line("\t\tlockHeld_ = false")
			c.line("\t\to.mu_.Unlock()")
			c.line("\t}")
			c.line("}")
			c.line("_ = rel_")
		}
	}

	for _, s := range m.Def.Body.Stmts {
		c.stmt(s)
	}
	if c.valueMode() && !isVoid(m.Ret) && !blockTerminates(m.Def.Body) {
		// The interpreter returns a zero value when control falls off
		// the end of a non-void body.
		c.line("return %s", e.zeroVal(m.Ret))
	}
	c.b.WriteString("}\n")
	return c.b.String()
}

// valueMode reports whether the current version returns the method's
// value (P_ and X_ are void: their callers discard results).
func (c *fnCtx) valueMode() bool { return c.mode != mP && c.mode != mX }

func isVoid(t types.Type) bool {
	b, ok := t.(types.Basic)
	return t == nil || (ok && b == types.Void)
}

// fnSignature renders the func header for one version.
func (e *goEmitter) fnSignature(m *types.Method, v variant) string {
	var b strings.Builder
	b.WriteString("func ")
	if m.Class != nil {
		fmt.Fprintf(&b, "(o *T_%s) ", m.Class.Name)
	}
	b.WriteString(versions[v].prefix)
	b.WriteString(m.Name)
	b.WriteByte('(')
	var params []string
	for _, a := range versions[v].thread {
		params = append(params, a+" "+threadType[a])
		e.useRtkit = e.useRtkit || a == "w"
	}
	for _, p := range m.Params {
		params = append(params, "v_"+p.Name+" "+e.goType(p.Type, true))
	}
	b.WriteString(strings.Join(params, ", "))
	b.WriteByte(')')
	if mode := versions[v].mode; (v != varR || e.plan.EmitDeclines(m)) && mode != mP && mode != mX && !isVoid(m.Ret) {
		b.WriteByte(' ')
		b.WriteString(e.goType(m.Ret, false))
	}
	return b.String()
}

// emitRegionWrapper renders R_m: the serial-to-parallel boundary
// (rt.runRoot). The parallel version runs on the calling goroutine with
// the run-wide pool's external handle (nativert.Pool); Drain blocks
// until every transitively spawned task and loop helper completes, then
// leaves the workers parked for the next region. Any return value is
// discarded, exactly as the interpreter's serial context discards
// region results. Under -mode serial it degrades to S_m.
//
// The wrapper of an unproven extent decides its tier here, by the rule
// of rt.serialCtx. A conditional extent (plan guard synthesized from
// the pair-test residuals) under -conditional evaluates its guard:
// true opens the parallel region, false takes the serial version —
// counted in guardParallel_/guardSerial_ — unless -speculate force
// still speculates it. With -conditional off it is left to the
// speculation policy like any other unproven extent, and no guard
// counter moves. The speculative body is emitted once, behind spec_.
//
// Before any of that comes the granularity cutoff, as in rt.serialCtx: a
// root whose static work bound is under regionEntryCost is not worth a
// region under any tier or policy. Its wrapper counts the entry it
// declined and is the serial version — result included — so none of the
// extent's P_/X_/SJ_ versions is ever demanded.
func (e *goEmitter) emitRegionWrapper(m *types.Method) string {
	mp := e.plan.Methods[m]
	e.demand(m, varS)
	c := &fnCtx{e: e, m: m, mp: mp, indent: 1}
	c.b.WriteString(e.fnSignature(m, varR))
	c.b.WriteString(" {\n")
	recv := ""
	if m.Class != nil {
		recv = "o."
	}
	var args []string
	for _, p := range m.Params {
		args = append(args, "v_"+p.Name)
	}
	serial := fmt.Sprintf("%sS_%s(%s)", recv, m.Name, strings.Join(args, ", "))
	switch {
	case e.plan.EmitDeclines(m):
		// A plain increment: wrappers run in the serial context, on
		// main's goroutine, and an atomic one would cost several times
		// what the smallest declined regions do.
		c.line("if cfgParallel {")
		c.line("\tregionsDeclined_++")
		c.line("}")
		if !isVoid(m.Ret) {
			serial = "return " + serial
		}
		c.line("%s", serial)
	case mp != nil && mp.Speculative:
		c.specRegionWrapper(recv, args, serial)
	default:
		c.provenRegionWrapper(recv, args, serial)
	}
	c.b.WriteString("}\n")
	return c.b.String()
}

// regionEntryCost is what entering a parallel region costs emitted code,
// in the DASH cost units of the plan's work estimate (MethodPlan.Work);
// internal/rt has the interpreter's. A region root bounded below it is
// emitted as its serial version: parallel execution cannot win.
//
// Derivation (EXPERIMENTS.md, "Granularity cutoff"): an emitted region
// takes 1.3-1.6 µs to enter and leave beyond the work inside it (guarded
// regions of condhash, one and two workers; speculative ones cost more),
// and emitted code retires a cost unit in ≈ 0.03 ns — 140 times faster
// than the compiled engine, which is why this constant is not rt's. So
// an entry is ≈ 50 000 units, and since two workers at best halve the
// work, a region pays only past 2 × that. The constant is the break-even
// at two workers, rounded; nothing reads it but the entry rule.
const regionEntryCost = 100000

// EmitDeclines reports whether m is a region root the emitter's
// granularity cutoff takes back: its R_ wrapper is its serial version.
func (p *Plan) EmitDeclines(m *types.Method) bool {
	return p.RegionRoot(m) && p.Methods[m].WorkUnder(regionEntryCost)
}

// provenRegionWrapper renders the body of R_m for a proven or
// conditional extent.
func (c *fnCtx) provenRegionWrapper(recv string, args []string, serial string) {
	e, m, mp := c.e, c.m, c.mp
	e.demand(m, varP)
	region := func() {
		c.line(runPoolStmt)
		c.line("%sP_%s(%s)", recv, m.Name, strings.Join(append(threadArgs(varP, "pool_.External()", "", ""), args...), ", "))
		c.line("pool_.Drain()")
	}
	c.line("if !cfgParallel {")
	c.line("\t%s", serial)
	c.line("\treturn")
	c.line("}")
	if mp == nil || !mp.Conditional || mp.Guard == nil {
		region()
		return
	}
	guard, err := e.guardExpr(mp)
	if err != nil {
		e.errorf("%s: %v", m.FullName(), err)
		guard = "false"
	}
	e.useAtomic = true
	if mp.SpecEligible {
		c.line("spec_ := specAllowed_(%s)", formatFloatLit(mp.Confidence))
	}
	c.line("if cfgConditional {")
	c.indent++
	c.line("if %s {", guard)
	c.indent++
	c.line("atomic.AddInt64(&guardParallel_, 1)")
	region()
	c.line("return")
	c.indent--
	c.line("}")
	c.line("atomic.AddInt64(&guardSerial_, 1)")
	if mp.SpecEligible {
		c.line("spec_ = cfgSpec == 2")
	}
	c.indent--
	c.line("}")
	if mp.SpecEligible {
		c.line("if spec_ {")
		c.indent++
		c.specRegionBody(recv, args, serial)
		c.indent--
		c.line("}")
	}
	c.line("%s", serial)
}

// runPoolStmt binds the run-wide pool in a region wrapper: nativert
// starts it at the first region of the process and hands the same pool
// to every later one.
const runPoolStmt = "pool_ := nativert.Pool(cfgWorkers)"

// specRegionWrapper renders the body of R_m for a speculative extent:
// the serial-to-speculative boundary (rt.serialCtx's mp.Speculative
// branch plus rt.runSpeculativeRegion). The policy gate mirrors
// rt.speculationAllowed with the eligibility and confidence baked in
// as literals; a declined policy runs the original serial body inline,
// exactly like the interpreter's serial fallback.
func (c *fnCtx) specRegionWrapper(recv string, args []string, serial string) {
	if !c.mp.SpecEligible {
		// rt.speculationAllowed never admits an ineligible extent:
		// every policy runs the serial body.
		c.line("%s", serial)
		return
	}
	c.line("if !cfgParallel || !specAllowed_(%s) {", formatFloatLit(c.mp.Confidence))
	c.line("\t%s", serial)
	c.line("\treturn")
	c.line("}")
	c.specRegionBody(recv, args, serial)
}

// specRegionBody renders the speculative region core
// (rt.runSpeculativeRegion): run the journaled parallel root under
// panic capture, drain the pool at the join barrier, validate and
// commit single-threaded — or discard every buffer and re-run the
// original serial version, whose heap the speculation never touched.
func (c *fnCtx) specRegionBody(recv string, args []string, serial string) {
	c.e.demand(c.m, varJP)
	c.e.useAtomic = true
	rd, wr := c.e.specSets(c.m)
	c.line("atomic.AddInt64(&specRegions_, 1)")
	c.line(runPoolStmt)
	c.line("sr_ := nativert.NewSpecRegion(%s, %s)", rd, wr)
	c.line("sj_ := sr_.NewJournal()")
	c.line("func() {")
	c.line("\tdefer sr_.CapturePanic()")
	c.line("\t%sSJ_%s(%s)", recv, c.m.Name, strings.Join(append(threadArgs(varJP, "pool_.External()", "", "sj_"), args...), ", "))
	c.line("}()")
	c.line("pool_.Drain()")
	c.line("if sr_.Commit() {")
	c.line("\tatomic.AddInt64(&specCommits_, 1)")
	c.line("\treturn")
	c.line("}")
	c.line("atomic.AddInt64(&specAborts_, 1)")
	c.line("%s", serial)
	c.line("return")
}

// SpecKeys resolves the declared transitive effect sets of the
// speculative extent rooted at mp to "Class.field" keys: every declared
// (class, field) pair, in declaration order, whose descriptor the set
// overlaps (the effects.OverlapsDesc lattice test). Both runtimes hand
// the journal (nativert.NewSpecRegion) these keys — specSets writes them
// out as the R_ wrapper's map literals, internal/rt builds the same maps
// at the root's first region — so membership of the key an access
// carries is the declared-effect conformance check.
func (p *Plan) SpecKeys(mp *MethodPlan) (reads, writes []string) {
	for _, cl := range p.Prog.ClassList {
		for _, f := range cl.Fields {
			d := effects.FieldDesc(cl, nil, f.Name)
			key := cl.Name + "." + f.Name
			if mp.SpecWrites != nil && mp.SpecWrites.OverlapsDesc(d) {
				writes = append(writes, key)
			}
			if mp.SpecReads != nil && mp.SpecReads.OverlapsDesc(d) {
				reads = append(reads, key)
			}
		}
	}
	return reads, writes
}

// specSets names the two key-set helpers of m's speculative extent,
// rendering them on first use.
func (e *goEmitter) specSets(m *types.Method) (rdName, wrName string) {
	base := m.Name
	if m.Class != nil {
		base = m.Class.Name + "_" + m.Name
	}
	rdName, wrName = "specRd_"+base, "specWr_"+base
	if _, ok := e.helpers[rdName]; !ok {
		rdKeys, wrKeys := e.plan.SpecKeys(e.plan.Methods[m])
		e.helpers[rdName] = specSetSrc(rdName, m, "read", rdKeys)
		e.helpers[wrName] = specSetSrc(wrName, m, "write", wrKeys)
	}
	return rdName, wrName
}

// specSetSrc renders one declared-effect key set as a map literal, its
// values aligned the way gofmt aligns consecutive key-value lines.
func specSetSrc(name string, m *types.Method, kind string, keys []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: fields the speculative extent rooted at %s may %s,\n", name, m.FullName(), kind)
	b.WriteString("// resolved against its declared transitive effects at generation time.\n")
	fmt.Fprintf(&b, "var %s = map[string]bool{", name)
	if len(keys) > 0 {
		b.WriteByte('\n')
		// Unless a key and the one before it are both small, gofmt
		// (exprList in go/printer/nodes.go) starts a new alignment
		// section at a key whose size leaves the range 1/r..r times the
		// geometric mean of the sizes before it in the section.
		const smallSize, r = 40, 2.5
		var rows [][]string
		lnsum, prev := 0.0, 0
		for _, k := range keys {
			key := strconv.Quote(k)
			size := len(key)
			if len(rows) > 0 && (prev > smallSize || size > smallSize) {
				if ratio := float64(size) / math.Exp(lnsum/float64(len(rows))); r*ratio <= 1 || r <= ratio {
					alignRows(&b, "\t", rows)
					rows, lnsum = rows[:0], 0
				}
			}
			rows = append(rows, []string{key + ":", "true,"})
			lnsum += math.Log(float64(size))
			prev = size
		}
		alignRows(&b, "\t", rows)
	}
	b.WriteString("}\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Statements

func (c *fnCtx) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.Block:
		for _, s := range v.Stmts {
			c.stmt(s)
		}
	case *ast.DeclStmt:
		t := c.e.prog.DeclType[v]
		if v.Init == nil {
			c.line("v_%s = %s", v.Name, c.e.zeroVal(t))
			return
		}
		// The interpreter zeroes the slot before evaluating the
		// initializer; that is observable only when the initializer
		// reads the variable being declared.
		if refersToVar(v.Init, v.Name) {
			c.line("v_%s = %s", v.Name, c.e.zeroVal(t))
		}
		c.line("v_%s = %s", v.Name, c.exprAs(v.Init, t, 1))
	case *ast.ExprStmt:
		c.exprStmt(v.X)
	case *ast.IfStmt:
		c.line("if %s {", c.clause(v.Cond))
		c.indent++
		c.stmt(v.Then)
		c.indent--
		if v.Else != nil {
			c.line("} else {")
			c.indent++
			c.stmt(v.Else)
			c.indent--
		}
		c.line("}")
	case *ast.WhileStmt:
		c.line("for %s {", c.clause(v.Cond))
		c.indent++
		c.stmt(v.Body)
		c.indent--
		c.line("}")
	case *ast.ForStmt:
		c.forStmt(v)
	case *ast.ReturnStmt:
		c.returnStmt(v)
	default:
		c.errf("unsupported statement %T", s)
	}
}

func (c *fnCtx) returnStmt(v *ast.ReturnStmt) {
	if !c.valueMode() {
		// Void versions still evaluate the expression for effects.
		if v.X != nil {
			c.exprStmt(v.X)
		}
		c.line("return")
		return
	}
	if v.X == nil {
		if isVoid(c.m.Ret) {
			c.line("return")
		} else {
			c.line("return %s", c.e.zeroVal(c.m.Ret))
		}
		return
	}
	if call, ok := v.X.(*ast.CallExpr); ok && !call.Builtin {
		cp := c.siteDispatch(call)
		if mp := c.e.plan.Methods[cp.callee]; cp.kind == ckRegion && mp != nil &&
			mp.Speculative && !isVoid(c.m.Ret) {
			// Run-time policy split: declining to speculate keeps the
			// serial call's real return value; speculating discards it
			// (the R_ wrapper's serial rerun after an abort included).
			c.e.demand(cp.callee, varS)
			scp := callPlan{kind: ckValue, callee: cp.callee, v: varS}
			serial := c.conv(c.renderCall(call, scp, 1), call, c.e.prog.TypeOf(call), c.m.Ret)
			if !mp.SpecEligible {
				c.line("return %s", serial)
				return
			}
			c.line("if cfgParallel && specAllowed_(%s) {", formatFloatLit(mp.Confidence))
			c.line("\t%s", c.renderCall(call, cp, 1))
			c.line("\treturn %s", c.e.zeroVal(c.m.Ret))
			c.line("}")
			c.line("return %s", serial)
			return
		}
		if cp.kind != ckValue {
			// The called version's result is discarded (region/spawn/
			// hoisted); run it, return a zero value.
			c.effectCall(call, cp)
			if isVoid(c.m.Ret) {
				c.line("return")
			} else {
				c.line("return %s", c.e.zeroVal(c.m.Ret))
			}
			return
		}
	}
	c.line("return %s", c.exprAs(v.X, c.m.Ret, 1))
}

// refersToVar reports whether the expression reads local/param name.
func refersToVar(x ast.Expr, name string) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok &&
			(id.Sym == ast.SymLocal || id.Sym == ast.SymParam) && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// blockTerminates reports whether the statement always transfers
// control (Go's terminating-statement analysis, restricted to the
// dialect's statement forms), so emitFn knows when a trailing zero
// return would be flagged as unreachable.
func blockTerminates(s ast.Stmt) bool {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.Block:
		if len(v.Stmts) == 0 {
			return false
		}
		return blockTerminates(v.Stmts[len(v.Stmts)-1])
	case *ast.IfStmt:
		return v.Else != nil && blockTerminates(v.Then) && blockTerminates(v.Else)
	}
	return false
}

// ---------------------------------------------------------------------
// Loops

// forStmt lowers a for loop. The plan's parallel loops compile to
// nativert.GSS in parallel-context modes; everything else is a serial
// Go loop (init before, condition re-evaluated, post at the body end —
// the interpreter's serial execution order).
func (c *fnCtx) forStmt(fs *ast.ForStmt) {
	if c.mode == mP || c.mode == mQ {
		if lp := c.e.plan.Loops[fs]; lp != nil && lp.Parallel {
			c.gssLoop(fs, lp.Header)
			return
		}
	}
	if fs.Init != nil {
		c.stmt(fs.Init)
	}
	cond := "true"
	if fs.Cond != nil {
		cond = c.clause(fs.Cond)
	}
	c.line("for %s {", cond)
	c.indent++
	c.stmt(fs.Body)
	if fs.Post != nil {
		c.stmt(fs.Post)
	}
	c.indent--
	c.line("}")
}

// gssLoop compiles a planned-parallel counted loop to guided
// self-scheduling. Mirrors rt.parallelLoop + rt's loop hook:
//   - the extent lock is released first when the plan says so,
//   - the enclosing body's scheduler handle w goes in, so the loop's
//     helpers are offered on the deque of the worker running it,
//   - each claimant gets one private copy of the frame variables the
//     body touches (the interpreter's per-claimant iteration frame),
//   - the body runs in iteration-context mode (mI dispatch),
//   - afterwards the loop variable holds what the serial loop leaves in
//     it (rtkit.LoopExit, the interpreter's function); the post
//     statement never runs.
//
// The header is the plan's: a declared-int variable always holds an int
// and a pure int bound always evaluates to one, so the interpreter's
// run-time half of the offer never fails for a loop the plan calls
// parallel, and both runtimes run the same loops.
func (c *fnCtx) gssLoop(fs *ast.ForStmt, h ast.CountedLoop) {
	if fs.Init != nil {
		c.stmt(fs.Init)
	}
	if !c.spec {
		// Speculative versions hold no locks, so there is nothing to
		// release before the loop fans out.
		switch c.mode {
		case mP:
			if c.releaseBeforeSpawn {
				c.releaseLock()
			}
		case mQ:
			c.line("if rel_ != nil {")
			c.line("\trel_()")
			c.line("}")
		}
	}
	// Frame variables referenced by the body, in frame-slot order.
	used := c.bodyVars(fs.Body)
	loopVarUsed := false
	var copies []string
	for _, name := range used {
		if name == h.Var.Name {
			loopVarUsed = true
		}
		copies = append(copies, "v_"+name)
	}
	c.line("{")
	c.indent++
	c.line("var gssTo_ int64 = %s", c.expr(h.Bound, 1))
	if c.spec {
		// rt's speculative loops: one fresh journal per claimant, taken
		// by the claimant; the factory parameter shadows the enclosing
		// task's sj_ so the iteration body journals into the claimant's
		// own log.
		c.line("nativert.SpecGSS(w, sr_, %q, %q, cfgWorkers, v_%s, gssTo_, %d, func(sj_ *nativert.SpecJournal) func(int64) {",
			c.m.FullName(), fs.Pos().String(), h.Var.Name, h.Step)
	} else {
		c.line("nativert.GSSOn(w, %q, %q, cfgWorkers, v_%s, gssTo_, %d, func() func(int64) {",
			c.m.FullName(), fs.Pos().String(), h.Var.Name, h.Step)
	}
	c.indent++
	if len(copies) > 0 {
		list := strings.Join(copies, ", ")
		c.line("%s := %s", list, list)
	}
	c.line("return func(gssI_ int64) {")
	c.indent++
	if loopVarUsed {
		c.line("v_%s = gssI_", h.Var.Name)
	}
	sub := &fnCtx{e: c.e, m: c.m, mp: c.mp, mode: mI, spec: c.spec, indent: c.indent, tmp: c.tmp}
	subEmit(sub, c, fs.Body)
	c.indent--
	c.line("}")
	c.indent--
	c.line("})")
	c.line("v_%[1]s = rtkit.LoopExit(v_%[1]s, gssTo_, %d)", h.Var.Name, h.Step)
	c.indent--
	c.line("}")
}

// subEmit runs the iteration-mode emitter over the loop body and folds
// its output and temp counter back into the parent context.
func subEmit(sub, parent *fnCtx, body ast.Stmt) {
	sub.stmt(body)
	parent.b.WriteString(sub.b.String())
	parent.tmp = sub.tmp
}

// bodyVars returns the frame variable names referenced in the loop
// body, in frame-slot order (deterministic emission order for the
// per-claimant copies).
func (c *fnCtx) bodyVars(body ast.Stmt) []string {
	used := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Sym == ast.SymLocal || id.Sym == ast.SymParam) {
			used[id.Name] = true
		}
		return true
	})
	var out []string
	for _, v := range c.e.frames[c.m] {
		if used[v.Name] {
			out = append(out, v.Name)
		}
	}
	return out
}

// releaseLock emits the guarded extent-lock release (rt.callVersion's
// releaseBeforeSpawn path).
func (c *fnCtx) releaseLock() {
	c.line("if lockHeld_ {")
	c.line("\tlockHeld_ = false")
	c.line("\to.mu_.Unlock()")
	c.line("}")
}
