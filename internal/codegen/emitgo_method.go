package codegen

// Per-method-version emission: signatures, lock discipline, statements,
// serial loops, and guided-self-scheduling compilation of
// planned-parallel counted loops.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

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

// w writes parts; it and every renderer return c, to chain a line.
func (c *fnCtx) w(parts ...string) *fnCtx {
	write(c.b, parts...)
	return c
}

// begin indents a new line and writes parts on it; end ends the line.
func (c *fnCtx) begin(parts ...string) *fnCtx {
	for range c.indent {
		c.b.WriteByte('\t')
	}
	return c.w(parts...)
}

func (c *fnCtx) end() { c.b.WriteByte('\n') }

// line writes one line of parts.
func (c *fnCtx) line(parts ...string) { c.begin(parts...).end() }

// sep writes the separator ahead of the i-th item of a list.
func (c *fnCtx) sep(i int) *fnCtx {
	if i > 0 {
		c.w(", ")
	}
	return c
}

func (c *fnCtx) int(n int64) *fnCtx {
	c.b.Write(strconv.AppendInt(c.b.AvailableBuffer(), n, 10))
	return c
}

func (c *fnCtx) typ(t types.Type, param bool) *fnCtx {
	c.b.Write(c.e.appendType(c.b.AvailableBuffer(), t, param))
	return c
}

// zero writes the zero value of a dialect type (what the interpreter's
// zeroValue produces for a freshly declared local).
func (c *fnCtx) zero(t types.Type) *fnCtx {
	switch t.(type) {
	case types.Array, types.Object:
		return c.typ(t, false).w("{}")
	}
	switch t {
	case types.Basic(types.Int), types.Basic(types.Double):
		return c.w("0")
	case types.Basic(types.Bool):
		return c.w("false")
	}
	return c.w("nil")
}

// fullName writes m's dialect name, quoted: identifiers and "::" need no
// escapes.
func (c *fnCtx) fullName(m *types.Method) *fnCtx {
	if c.w(`"`); m.Class != nil {
		c.w(m.Class.Name, "::")
	}
	return c.w(m.Name, `"`)
}

// threadArgs writes what a call of version v passes ahead of the
// method's own arguments: the site's worker handle w, sr_, and the
// callee's journal — temporary jv where one is given, sj_ otherwise.
func (c *fnCtx) threadArgs(v variant, w string, jv int) *fnCtx {
	for i, a := range versions[v].thread {
		switch c.sep(i); {
		case a == "w":
			c.w(w)
		case a == "sj_" && jv > 0:
			c.tmpVar(jv)
		default:
			c.w(a)
		}
	}
	return c
}

// vars writes the frame variables' names as a list, after n items.
func (c *fnCtx) vars(n int, vs []types.Var) *fnCtx {
	for i, v := range vs {
		c.sep(n+i).w("v_", v.Name)
	}
	return c
}

func (c *fnCtx) errf(format string, args ...any) {
	c.e.errorf("%s: %s", c.m.FullName(), fmt.Sprintf(format, args...))
}

// emitFn appends one method version to e.fns as Go source.
func (e *goEmitter) emitFn(m *types.Method, v variant) {
	c := &e.fn
	*c = fnCtx{e: e, b: e.fns, m: m, mp: e.plan.Methods[m], mode: versions[v].mode, spec: specVariant(v), indent: 1}
	params, locals := m.Frame[:len(m.Params)], m.Frame[len(m.Params):]
	if v == varR {
		c.regionWrapper()
		return
	}
	c.signature(v).w(" {\n")

	if v == varX && c.mp.Coarse {
		// Lock coarsening: the serial version under the receiver lock.
		e.demand(m, varS)
		c.lockPrologue()
		c.begin("o.S_", m.Name, "(").vars(0, params).w(")").end()
		c.w("}\n")
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
	if len(locals) > 0 {
		rows := make([][]string, len(locals))
		for i, l := range locals {
			rows[i] = []string{"v_" + l.Name, e.goType(l.Type, false)}
		}
		c.line("var (")
		alignRows(c.b, "\t\t", rows)
		c.line(")")
		c.begin("_")
		for range len(locals) - 1 {
			c.w(", _")
		}
		c.w(" = ").vars(0, locals).end()
	}
	c.bound = e.bindings(m)
	for _, p := range c.bound {
		c.begin("b_", p.Name, " := ")
		e.use(c.b, helperAsI, p.Type.(types.Pointer).Class)
		c.w("(v_", p.Name, ")").end()
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
	c.w("}\n")
}

// valueMode reports whether the current version returns the method's
// value (P_ and X_ are void: their callers discard results).
func (c *fnCtx) valueMode() bool { return c.mode != mP && c.mode != mX }

func isVoid(t types.Type) bool {
	b, ok := t.(types.Basic)
	return t == nil || (ok && b == types.Void)
}

// signature writes the func header of version v of the method.
func (c *fnCtx) signature(v variant) *fnCtx {
	m, thread := c.m, versions[v].thread
	if c.w("func "); m.Class != nil {
		c.w("(o *T_", m.Class.Name, ") ")
	}
	c.w(versions[v].prefix, m.Name, "(")
	for i, a := range thread {
		c.sep(i).w(a, " ", threadType[a])
		c.e.useRtkit = c.e.useRtkit || a == "w"
	}
	for i, p := range m.Params {
		c.sep(len(thread)+i).w("v_", p.Name, " ").typ(p.Type, true)
	}
	if mode := versions[v].mode; mode != mP && mode != mX && !isVoid(m.Ret) {
		return c.w(") ").typ(m.Ret, false)
	}
	return c.w(")")
}

// regionWrapper writes R_m, the serial-to-parallel boundary: a
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
func (c *fnCtx) regionWrapper() {
	e, m := c.e, c.m
	e.demand(m, varS)
	c.signature(varR).w(" {\n")
	// call writes a line calling m's version v, indented by tab, ahead
	// of whose own arguments go the pool's external handle w and the
	// region's journal.
	call := func(tab string, v variant, w string) {
		if c.begin(tab); m.Class != nil {
			c.w("o.")
		}
		c.w(versions[v].prefix, m.Name, "(").threadArgs(v, w, 0).vars(len(versions[v].thread), m.Frame[:len(m.Params)]).w(")").end()
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
		call("", varS, "")
		c.w("}\n")
		return
	}
	c.begin("switch rt_.Enter(&rt_.Stats, nativert.Root{")
	n, facts := 0, [...]bool{root.Proven, root.Conditional, root.SpecEligible}
	for i, name := range [...]string{"Proven", "Conditional", "SpecEligible"} {
		if facts[i] {
			c.sep(n).w(name, ": true")
			n++
		}
	}
	if root.SpecEligible {
		c.w(", Confidence: ")
		writeFloatLit(c.b, root.Confidence)
	}
	if c.w("}, "); root.Conditional {
		// A function literal on three lines stays on three lines.
		c.w("func() bool {\n\t\treturn ", e.guardExpr(c.mp), "\n\t}")
	} else {
		c.w("nil")
	}
	c.w(") {").end()
	if root.Proven || root.Conditional {
		e.demand(m, varP)
		c.line("case nativert.Parallel:")
		c.line("\tpool_ := nativert.Pool(rt_.Workers)")
		call("\t", varP, "pool_.External()")
		c.line("\tpool_.Drain()")
		for _, g := range e.plan.regionReplicas(m) {
			e.replicas[g] = true
			c.line("\trep_", g.Name, ".Fold(G_", g.Name, ", (*T_", g.Class.Name, ").fold_)")
		}
	}
	if root.SpecEligible {
		e.demand(m, varJP)
		e.useRtkit = true
		rd, wr := e.specSets(m)
		c.line("case nativert.Speculative:")
		c.line("\tif !rt_.RunSpeculative(", rd, ", ", wr, ", func(w *rtkit.Worker, sr_ *nativert.SpecRegion, sj_ *nativert.SpecJournal) {")
		call("\t\t", varJP, "w")
		c.line("\t}) {")
		call("\t\t", varS, "")
		c.line("\t}")
	}
	c.line("default:")
	call("\t", varS, "")
	c.line("}")
	c.w("}\n")
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
		// The interpreter zeroes the slot before evaluating the
		// initializer; that is observable only when the initializer
		// reads the variable being declared.
		if v.Init == nil || refersToVar(v.Init, v.Name) {
			c.begin("v_", v.Name, " = ").zero(t).end()
		}
		if v.Init != nil {
			c.begin("v_", v.Name, " = ").exprAs(v.Init, t, 1).end()
		}
	case *ast.ExprStmt:
		c.exprStmt(v.X)
	case *ast.IfStmt:
		c.begin("if ").clause(v.Cond).w(" {").end()
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
		c.begin("for ").clause(v.Cond).w(" {").end()
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
	x := v.X
	if call, ok := x.(*ast.CallExpr); ok && !call.Builtin {
		if cp := c.siteDispatch(call); cp.kind != ckValue {
			// The called version's result is discarded (spawn/
			// hoisted); run it, return a zero value.
			c.effectCall(call, cp)
			x = nil
		}
	}
	switch {
	case x != nil:
		c.begin("return ").exprAs(x, c.m.Ret, 1).end()
	case isVoid(c.m.Ret):
		c.line("return")
	default:
		c.begin("return ").zero(c.m.Ret).end()
	}
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
	if c.begin("for "); fs.Cond != nil {
		c.clause(fs.Cond)
	} else {
		c.w("true")
	}
	c.w(" {").end()
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
	c.line("{")
	c.indent++
	c.begin("var gssTo_ int64 = ").expr(h.Bound, 1).end()
	// rt's speculative loops: one fresh journal per claimant, taken by the
	// claimant; the factory parameter shadows the enclosing task's sj_ so
	// the iteration body journals into the claimant's own log.
	loop, factory := "nativert.GSSOn(w, ", ", func(w *rtkit.Worker) func(int64) {"
	if c.spec {
		loop, factory = "nativert.SpecGSS(w, sr_, ", ", func(sj_ *nativert.SpecJournal) func(int64) {"
	}
	pos := fs.Pos()
	c.begin(loop).fullName(c.m).w(`, "`).int(int64(pos.Line)).w(":").int(int64(pos.Col))
	c.w(`", rt_.Workers, v_`, h.Var.Name, ", gssTo_, ").int(h.Step).w(factory).end()
	c.indent++
	if len(used) > 0 {
		c.begin().vars(0, used).w(" := ").vars(0, used).end()
	}
	c.line("return func(gssI_ int64) {")
	c.indent++
	if slices.ContainsFunc(used, func(v types.Var) bool { return v.Name == h.Var.Name }) {
		c.line("v_", h.Var.Name, " = gssI_")
	}
	// The body's call sites lower under the iteration context.
	sub := &fnCtx{e: c.e, b: c.b, m: c.m, mp: c.mp, mode: mI, spec: c.spec, bound: c.bound, indent: c.indent, tmp: c.tmp}
	sub.stmt(fs.Body)
	c.tmp = sub.tmp
	c.indent--
	c.line("}")
	c.indent--
	c.line("})")
	c.begin("v_", h.Var.Name, " = rtkit.LoopExit(v_", h.Var.Name, ", gssTo_, ").int(h.Step).w(")").end()
	c.indent--
	c.line("}")
}

// bodyVars returns the frame variables referenced in the loop body, in
// frame-slot order (deterministic emission order for the per-claimant
// copies).
func (c *fnCtx) bodyVars(body ast.Stmt) []types.Var {
	used := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Sym == ast.SymLocal || id.Sym == ast.SymParam) {
			used[id.Name] = true
		}
		return true
	})
	var out []types.Var
	for _, v := range c.m.Frame {
		if used[v.Name] {
			out = append(out, v)
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
