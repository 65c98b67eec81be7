package codegen

// Per-method-version emission: signatures, lock discipline, statements,
// serial loops, and guided-self-scheduling compilation of
// planned-parallel counted loops.

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"commute/internal/analysis/effects"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
	"commute/nativert"
)

// emitMode is the execution context a function body compiles under;
// it decides call-site dispatch and loop lowering. The version table
// (versions) says which mode each version's body compiles under.
type emitMode int

const (
	mS emitMode = iota // serial engine
	mD                 // serial context of the parallel engine
	mP                 // parallel version
	mX                 // mutex version
	mI                 // parallel-loop iteration context
)

// modeVersion names each in-region mode for the plan's call rule, and
// runVariant the proven version that runs what the rule answers.
var (
	modeVersion = [...]Version{mS: VersionSerial, mP: VersionParallel, mX: VersionMutex, mI: VersionIteration}
	runVariant  = [...]variant{VersionSerial: varS, VersionParallel: varP, VersionMutex: varX}
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
	locked bool

	// bound: the parameters the version binds once to a concrete pointer
	// (bindings), b_<name>.
	bound []*types.Param

	b      *bytes.Buffer // the emitter's fns
	indent int
	tmp    int
}

func (c *fnCtx) line(format string, args ...any) {
	for i := 0; i < c.indent; i++ {
		c.b.WriteByte('\t')
	}
	if len(args) == 0 {
		c.b.WriteString(format)
	} else {
		fmt.Fprintf(c.b, format, args...)
	}
	c.b.WriteByte('\n')
}

func (c *fnCtx) errf(format string, args ...any) {
	c.e.errorf("%s: %s", c.m.FullName(), fmt.Sprintf(format, args...))
}

// emitFn appends one method version to e.fns as Go source.
func (e *goEmitter) emitFn(m *types.Method, v variant) {
	if v == varR {
		e.emitRegionWrapper(m)
		return
	}
	c := &fnCtx{e: e, b: &e.fns, m: m, mp: e.plan.Methods[m], mode: versions[v].mode, spec: specVariant(v)}
	e.fnSignature(m, v)
	c.b.WriteString(" {\n")
	c.indent = 1

	if v == varX && c.mp.Coarse {
		// Lock coarsening: the serial version under the receiver lock.
		e.demand(m, varS)
		c.lockPrologue()
		c.line("o.S_%s(%s)", m.Name, strings.Join(paramArgs(m), ", "))
		c.b.WriteString("}\n")
		return
	}
	if v == varJP {
		// rt.callVersion's entry fast path: once some task failed, the
		// region aborts regardless, so stop journaling work.
		c.line("if sr_.Failed() {")
		c.line("\treturn")
		c.line("}")
	}

	// Hoisted frame locals (interpreter frames allocate every local up
	// front; DeclStmt re-zeroes its slot on execution).
	locals := m.Frame[len(m.Params):]
	if len(locals) > 0 {
		var names []string
		var rows [][]string
		for _, l := range locals {
			names = append(names, "v_"+l.Name)
			rows = append(rows, []string{"v_" + l.Name, e.goType(l.Type, false)})
		}
		c.line("var (")
		alignRows(c.b, "\t\t", rows)
		c.line(")")
		c.line("%s = %s", strings.Repeat("_, ", len(locals)-1)+"_", strings.Join(names, ", "))
	}
	c.bound = e.bindings(m)
	for _, p := range c.bound {
		c.line("b_%s := %s(v_%[1]s)", p.Name, e.helperAsI(p.Type.(types.Pointer).Class))
	}

	// Lock prologue for parallel/mutex versions (rt.callVersion:
	// locked = NeedsLock && recv != nil). Speculative versions never
	// lock — the journals provide the isolation.
	if (c.mode == mP || c.mode == mX) && !c.spec && c.mp != nil && c.mp.NeedsLock && m.Class != nil {
		c.lockPrologue()
	}

	for _, s := range m.Def.Body.Stmts {
		c.stmt(s)
	}
	c.b.WriteString("}\n")
}

// paramArgs lists m's parameters as a version passes them on to another
// version of m.
func paramArgs(m *types.Method) []string {
	var args []string
	for _, p := range m.Params {
		args = append(args, "v_"+p.Name)
	}
	return args
}

// valueMode reports whether the current version returns the method's
// value (P_ and X_ are void: their callers discard results).
func (c *fnCtx) valueMode() bool { return c.mode != mP && c.mode != mX }

func isVoid(t types.Type) bool {
	b, ok := t.(types.Basic)
	return t == nil || (ok && b == types.Void)
}

// fnSignature appends the func header for one version.
func (e *goEmitter) fnSignature(m *types.Method, v variant) {
	b := &e.fns
	b.WriteString("func ")
	if m.Class != nil {
		fmt.Fprintf(b, "(o *T_%s) ", m.Class.Name)
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
	if mode := versions[v].mode; mode != mP && mode != mX && !isVoid(m.Ret) {
		b.WriteByte(' ')
		b.WriteString(e.goType(m.Ret, false))
	}
}

// emitRegionWrapper renders R_m, the serial-to-parallel boundary: a
// switch on the tier nativert's entry rule gives this entry under the
// run's policy (rt_, the program's nativert.Driver), as internal/rt's
// serialCtx is. The root's static facts and its guard go in; only the
// tiers those facts can reach get a case, so only the versions they run
// are demanded. A root returns no value (Plan.RegionRoot), nor does R_m.
//
//   - Parallel: P_m runs on the calling goroutine with the external
//     handle of the run-wide pool (nativert.Pool); Drain blocks until
//     every transitively spawned task and loop helper completes, then
//     leaves the workers parked for the next region, and the replicas
//     the region's accumulations may have touched are folded back into
//     their globals (Plan.regionReplicas).
//   - Speculative: the journaled SJ_m, inside Driver.RunSpeculative; when
//     that reports an abort nothing has reached the heap and S_m reruns.
//   - otherwise S_m (-mode serial included).
//
// Before any of that comes the granularity cutoff: a root whose static
// work bound is under regionEntryCost is not worth a region under any
// tier or policy. Its wrapper counts the entry it declined and is the
// serial version, so no other version of the extent is ever demanded.
func (e *goEmitter) emitRegionWrapper(m *types.Method) {
	e.demand(m, varS)
	c := &fnCtx{e: e, b: &e.fns, m: m, mp: e.plan.Methods[m], indent: 1}
	e.fnSignature(m, varR)
	c.b.WriteString(" {\n")
	args := paramArgs(m)
	// call renders a call of m's version v, ahead of whose own arguments
	// go the pool's external handle and the region's journal.
	call := func(v variant, w string) string {
		recv := ""
		if m.Class != nil {
			recv = "o."
		}
		return recv + versions[v].prefix + m.Name + "(" + strings.Join(append(threadArgs(v, w, "sj_"), args...), ", ") + ")"
	}
	root, declined := c.mp.EntryFacts(), e.plan.EmitDeclines(m)
	if declined {
		// A plain increment: wrappers run in the serial context, on
		// main's goroutine, and an atomic one would cost several times
		// what the smallest declined regions do.
		c.line("if rt_.Parallel {")
		c.line("\trt_.RegionsDeclined++")
		c.line("}")
	}
	if declined || root == (nativert.Root{}) {
		// Declined, or a rejected extent that may not speculate: serial
		// under every policy.
		c.line("%s", call(varS, ""))
		c.b.WriteString("}\n")
		return
	}
	var facts []string
	guard := "nil"
	if root.Proven {
		facts = append(facts, "Proven: true")
	}
	if root.Conditional {
		facts = append(facts, "Conditional: true")
		// A function literal on three lines stays on three lines.
		guard = "func() bool {\n\t\treturn " + e.guardExpr(c.mp) + "\n\t}"
	}
	if root.SpecEligible {
		facts = append(facts, "SpecEligible: true", "Confidence: "+formatFloatLit(root.Confidence))
	}
	c.line("switch rt_.Enter(&rt_.Stats, nativert.Root{%s}, %s) {", strings.Join(facts, ", "), guard)
	if root.Proven || root.Conditional {
		e.demand(m, varP)
		c.line("case nativert.Parallel:")
		c.line("\tpool_ := nativert.Pool(rt_.Workers)")
		c.line("\t%s", call(varP, "pool_.External()"))
		c.line("\tpool_.Drain()")
		for _, g := range e.plan.regionReplicas(m) {
			e.replicas[g] = true
			c.line("\trep_%s.Fold(G_%s, (*T_%s).fold_)", g.Name, g.Name, g.Class.Name)
		}
	}
	if root.SpecEligible {
		e.demand(m, varJP)
		e.useRtkit = true
		rd, wr := e.specSets(m)
		c.line("case nativert.Speculative:")
		c.line("\tif !rt_.RunSpeculative(%s, %s, func(w *rtkit.Worker, sr_ *nativert.SpecRegion, sj_ *nativert.SpecJournal) {", rd, wr)
		c.line("\t\t%s", call(varJP, "w"))
		c.line("\t}) {")
		c.line("\t\t%s", call(varS, ""))
		c.line("\t}")
	}
	c.line("default:")
	c.line("\t%s", call(varS, ""))
	c.line("}")
	c.b.WriteString("}\n")
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
	var b bytes.Buffer
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
		if cp.kind != ckValue {
			// The called version's result is discarded (spawn/
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

// ---------------------------------------------------------------------
// Loops

// forStmt lowers a for loop. The plan's parallel loops compile to
// nativert.GSS in a parallel version; everything else is a serial Go
// loop (init before, condition re-evaluated, post at the body end — the
// interpreter's serial execution order).
func (c *fnCtx) forStmt(fs *ast.ForStmt) {
	if c.mode == mP {
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
// self-scheduling, as rt.parallelLoop and rt's loop hook run it:
//   - the receiver lock is released first unless held through,
//   - the enclosing body's scheduler handle w goes in, so the loop's
//     helpers are offered on the deque of the worker running it,
//   - each claimant gets one private copy of the frame variables the
//     body touches (the interpreter's per-claimant iteration frame), and
//     its own handle w, which the factory's parameter shadows,
//   - the body's call sites lower under the iteration context (mI),
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
	if c.locked && !c.mp.HoldsLockThrough {
		c.releaseLock()
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
		c.line("nativert.SpecGSS(w, sr_, %q, %q, rt_.Workers, v_%s, gssTo_, %d, func(sj_ *nativert.SpecJournal) func(int64) {",
			c.m.FullName(), fs.Pos().String(), h.Var.Name, h.Step)
	} else {
		c.line("nativert.GSSOn(w, %q, %q, rt_.Workers, v_%s, gssTo_, %d, func(w *rtkit.Worker) func(int64) {",
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
	// The body's call sites lower under the iteration context.
	sub := &fnCtx{e: c.e, b: c.b, m: c.m, mp: c.mp, mode: mI, spec: c.spec, bound: c.bound, indent: c.indent, tmp: c.tmp}
	sub.stmt(fs.Body)
	c.tmp = sub.tmp
	c.indent--
	c.line("}")
	c.indent--
	c.line("})")
	c.line("v_%[1]s = rtkit.LoopExit(v_%[1]s, gssTo_, %d)", h.Var.Name, h.Step)
	c.indent--
	c.line("}")
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
	for _, v := range c.m.Frame {
		if used[v.Name] {
			out = append(out, v.Name)
		}
	}
	return out
}

// lockPrologue takes the receiver lock. Where the version holds it to the
// end, the release is deferred; where something lets go of it first
// (releasesEarly), lockHeld_ says whether the deferred release still has
// to.
func (c *fnCtx) lockPrologue() {
	c.e.muRoots[chainRoot(c.m.Class)] = true
	c.locked = true
	c.line("o.mu_.Lock()")
	if !c.releasesEarly() {
		c.line("defer o.mu_.Unlock()")
		return
	}
	c.line("lockHeld_ := true")
	c.line("defer func() {")
	c.line("\tif lockHeld_ {")
	c.line("\t\to.mu_.Unlock()")
	c.line("\t}")
	c.line("}()")
}

// releasesEarly reports whether the version lets go of its receiver lock
// before it returns: the call rule releases it at some site, or a
// parallel loop ends the object section. (A site in a parallel loop's
// body lowers under the iteration context, which releases nothing, but
// the loop itself does.)
func (c *fnCtx) releasesEarly() bool {
	if c.mp.HoldsLockThrough {
		return false
	}
	for _, cs := range c.m.CallSites {
		if c.mp.Call(modeVersion[c.mode], cs, c.e.plan.Methods[cs.Callee]).Release {
			return true
		}
	}
	if c.mode == mP {
		for _, lp := range c.e.plan.Loops {
			if lp.Method == c.m && lp.Parallel {
				return true
			}
		}
	}
	return false
}

// releaseLock emits the guarded receiver-lock release that ends the
// object section.
func (c *fnCtx) releaseLock() {
	c.line("if lockHeld_ {")
	c.line("\tlockHeld_ = false")
	c.line("\to.mu_.Unlock()")
	c.line("}")
}
