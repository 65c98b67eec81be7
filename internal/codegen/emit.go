package codegen

import (
	"bytes"
	"sync"

	"commute/internal/cond"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/printer"
	"commute/internal/frontend/types"
)

// EmitParallelSource renders the transformed parallel program as
// annotated source in the style of the paper's Figure 2: every class
// that needs one gains a mutual exclusion lock, and every parallel
// method gains the generated versions something can run (listedVersions)
// beside its serial version —
//
//   - the serial version (the original name), which at a proven region
//     root (Plan.RegionRoot) invokes the parallel version and blocks in
//     the wait() construct, and anywhere else is the original method,
//     return type and all, as serial callers run it — at a guarded or
//     speculative root under a comment line naming its tier;
//   - the parallel version (<name>__parallel), whose object section
//     executes under the receiver lock and whose invocation section
//     spawns tasks and runs parallel loops under guided self-scheduling;
//   - the mutex version (<name>__mutex), which locks the object section
//     but spawns nothing (the §5.2 suppression).
//
// Every call site prints what the plan's call rule answers for the
// version its body renders (MethodPlan.Call) — spawn(...__parallel), a
// __mutex call on the caller's stack, replica(...) for a serial call on
// the worker's replica of a global, or the plain serial call — and a
// loop is a parallel_for exactly where LoopPlan.Parallel holds in a
// parallel version, its body rendered as the iterations run it. The
// output targets the run-time library API the paper's generated code
// used (lock.acquire/release, spawn, wait, parallel_for); it says what
// the in-process executors (internal/rt, internal/tracer) and the
// emitted Go run.
func (p *Plan) EmitParallelSource(file *ast.File) string {
	e := &emitter{plan: p, listed: p.listedVersions(), sb: getScratch()}
	defer scratch.Put(e.sb)
	e.sb.Grow(file.Size + file.Size/2) // a fresh buffer: about the listing's size
	e.sb.WriteString("// Automatically parallelized by commutativity analysis.\n")
	e.sb.WriteString("// Generated constructs: lock.acquire()/lock.release(), spawn(op),\n")
	e.sb.WriteString("// wait(), and parallel_for (guided self-scheduling).\n\n")
	for _, d := range file.Decls {
		switch x := d.(type) {
		case *ast.ClassDecl:
			e.classDecl(x)
		case *ast.MethodDef:
			e.methodDef(x)
		default:
			printer.WriteDecl(e.sb, d)
		}
		e.sb.WriteString("\n")
	}
	return e.sb.String()
}

// scratch holds the buffers both emitters render into before they copy
// out what they return: each call takes its own, so concurrent emits
// share nothing, and the capacity one emit grew serves the next.
var scratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getScratch() *bytes.Buffer {
	b := scratch.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// emitter writes the whole listing into one scratch buffer.
type emitter struct {
	plan   *Plan
	listed versionSet
	sb     *bytes.Buffer
}

// versionSet holds generated versions, a bit (1 << Version) per version
// at each method's ID.
type versionSet []uint8

func (s versionSet) has(m *types.Method, v Version) bool { return s[m.ID]&(1<<v) != 0 }

// listedVersions returns the parallel and mutex versions something can
// run, as -emit go demands them: the parallel version of every region
// root, and every version a call site of a listed version runs by the
// call rule — a site in a parallel loop of a parallel version as the
// iterations run it.
func (p *Plan) listedVersions() versionSet {
	listed := make(versionSet, len(p.Prog.Methods))
	var visit func(m *types.Method, in Version)
	visit = func(m *types.Method, in Version) {
		if listed.has(m, in) {
			return
		}
		listed[m.ID] |= 1 << in
		mp := p.Methods[m]
		var walk func(n ast.Node, in Version)
		walk = func(n ast.Node, in Version) {
			ast.Inspect(n, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.ForStmt:
					if lp := p.Loops[x]; in == VersionParallel && lp != nil && lp.Parallel {
						walk(x.Body, VersionIteration)
						return false
					}
				case *ast.CallExpr:
					if !x.Builtin && x.Site >= 0 {
						cs := p.Prog.CallSites[x.Site]
						if sc := mp.Call(in, cs, p.Methods[cs.Callee]); sc.Run != VersionSerial {
							visit(cs.Callee, sc.Run)
						}
					}
				}
				return true
			})
		}
		walk(m.Def.Body, in)
	}
	for m := range p.Methods {
		if p.RegionRoot(m) {
			visit(m, VersionParallel)
		}
	}
	return listed
}

func (e *emitter) w(parts ...string) { write(e.sb, parts...) }

func (e *emitter) methodByName(className, name string) *types.Method {
	if className == "" {
		return e.plan.Prog.Funcs[name]
	}
	cl := e.plan.Prog.Classes[className]
	if cl == nil {
		return nil
	}
	return cl.MethodByName(name)
}

// classDecl renders a class, adding the lock field when the lock
// elimination pass kept it, and prototypes for the generated versions. A
// parallel method defined in the class body is declared there and its
// versions are defined after the class, as methodDef renders them.
func (e *emitter) classDecl(cd *ast.ClassDecl) {
	if cd.Base != "" {
		e.w("class ", cd.Name, " : public ", cd.Base, " {\npublic:\n")
	} else {
		e.w("class ", cd.Name, " {\npublic:\n")
	}
	cl := e.plan.Prog.Classes[cd.Name]
	if cl != nil && e.plan.LockedClasses[cl] {
		e.w("  lock mutex;  // inserted: object sections execute atomically\n")
	}
	members, moved := *cd, []*ast.MethodDef(nil)
	members.Inline = nil
	for _, md := range cd.Inline {
		if e.parallel(cd.Name, md.Name) {
			members.Protos = append(members.Protos[:len(members.Protos):len(members.Protos)], &ast.MethodProto{Name: md.Name, RetType: md.RetType, Params: md.Params})
			moved = append(moved, md)
		} else {
			members.Inline = append(members.Inline, md)
		}
	}
	printer.WriteMembers(e.sb, &members)
	// Prototypes for generated versions.
	for _, proto := range members.Protos {
		m := e.methodByName(cd.Name, proto.Name)
		for _, v := range [...]Version{VersionParallel, VersionMutex} {
			if e.listed.has(m, v) {
				e.w("  void ", proto.Name, versionSuffix[v], "(")
				printer.WriteParams(e.sb, proto.Params)
				e.w(");\n")
			}
		}
	}
	e.w("};\n")
	for _, md := range moved {
		e.w("\n")
		e.methodDef(md)
	}
}

// parallel reports whether the plan gives className::name generated
// versions.
func (e *emitter) parallel(className, name string) bool {
	mp := e.plan.Methods[e.methodByName(className, name)]
	return mp != nil && mp.Parallel
}

// methodDef renders the generated versions of one method.
func (e *emitter) methodDef(md *ast.MethodDef) {
	if !e.parallel(md.ClassName, md.Name) {
		printer.WriteDecl(e.sb, md)
		return
	}
	m := e.methodByName(md.ClassName, md.Name)
	mp := e.plan.Methods[m]

	// open writes a version's signature and opening brace.
	open := func(suffix string) {
		e.w("void ")
		if md.ClassName != "" {
			e.w(md.ClassName, "::")
		}
		e.w(md.Name, suffix, "(")
		printer.WriteParams(e.sb, md.Params)
		e.w(") {\n")
	}

	// Serial version: a proven region root invokes the parallel version,
	// then waits; any other method is called from serial code as written,
	// and so is a guarded or speculative root under the default policy —
	// its tier line says what else may open it.
	root := e.plan.RegionRoot(m)
	if root && mp.EntryFacts().Proven {
		open("")
		e.w("  this->", md.Name, "__parallel(")
		for i, prm := range md.Params {
			if i > 0 {
				e.w(", ")
			}
			e.w(prm.Name)
		}
		e.w(");\n  wait();\n}\n")
	} else {
		if root {
			e.w(tierLine(mp), "\n")
		}
		printer.WriteDecl(e.sb, md)
	}

	for _, v := range [...]Version{VersionParallel, VersionMutex} {
		if e.listed.has(m, v) {
			e.w("\n")
			open(versionSuffix[v])
			e.body(mp, md.Body, v)
			e.w("}\n")
		}
	}
}

// tierLine is the comment over the serial version of an unproven region
// root: its tier and, for a guarded root, the guard's text.
func tierLine(mp *MethodPlan) string {
	if mp.Conditional {
		return "// guarded root: parallel only under the conditional policy, when " +
			mp.Guard.Go(func(r cond.FieldRef) string { return r.Global + "." + r.Field }) + " holds"
	}
	return "// speculative root: parallel only under a speculation policy, journaled"
}

// body renders a transformed method body running as version in, with
// lock placement: the receiver lock (when required) covers the object
// section and is released on every control path before the first extent
// invocation (or at method end under hoisting).
func (e *emitter) body(mp *MethodPlan, b *ast.Block, in Version) {
	t := &bodyEmitter{e: e, mp: mp, in: in, indent: 1}
	if mp.NeedsLock {
		t.line("mutex.acquire();")
		t.lockHeld = true
	}
	t.stmts(b.Stmts)
	if t.lockHeld {
		t.line("mutex.release();")
	}
}

type bodyEmitter struct {
	e        *emitter
	mp       *MethodPlan
	in       Version // the version the statements run as
	indent   int
	lockHeld bool
}

// pad indents, then writes the parts.
func (t *bodyEmitter) pad(parts ...string) {
	for i := 0; i < t.indent; i++ {
		t.e.w("  ")
	}
	t.e.w(parts...)
}

// line writes one indented line.
func (t *bodyEmitter) line(s string) { t.pad(s, "\n") }

func (t *bodyEmitter) raw(s ast.Stmt) { printer.WriteStmt(t.e.sb, s, t.indent) }

// releaseIfNeeded drops the lock before entering the invocation
// section, unless hoisting holds it through.
func (t *bodyEmitter) releaseIfNeeded() {
	if t.lockHeld && !t.mp.HoldsLockThrough {
		t.line("mutex.release();")
		t.lockHeld = false
	}
}

// site is the call rule's answer for a call of this body.
func (t *bodyEmitter) site(call *ast.CallExpr) SiteCall {
	cs := t.e.plan.Prog.CallSites[call.Site]
	return t.mp.Call(t.in, cs, t.e.plan.Methods[cs.Callee])
}

// parallelLoop reports whether the loop is a parallel_for here.
func (t *bodyEmitter) parallelLoop(x *ast.ForStmt) bool {
	lp := t.e.plan.Loops[x]
	return t.in == VersionParallel && lp != nil && lp.Parallel
}

// rewrites reports whether the subtree prints other than as written: it
// holds a call site that is not a plain serial call, or a parallel loop.
func (t *bodyEmitter) rewrites(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			found = !x.Builtin && x.Site >= 0 && t.site(x) != SiteCall{Run: VersionSerial}
		case *ast.ForStmt:
			found = t.parallelLoop(x)
		}
		return !found
	})
	return found
}

func (t *bodyEmitter) stmts(ss []ast.Stmt) {
	for _, s := range ss {
		t.stmt(s)
	}
}

// stmtsOf renders a statement or a block's statements.
func (t *bodyEmitter) stmtsOf(s ast.Stmt) {
	if b, ok := s.(*ast.Block); ok {
		t.stmts(b.Stmts)
		return
	}
	t.stmt(s)
}

func (t *bodyEmitter) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.Block:
		t.line("{")
		t.indent++
		t.stmts(x.Stmts)
		t.indent--
		t.line("}")
	case *ast.ExprStmt:
		t.callStmt(x)
	case *ast.IfStmt:
		t.ifStmt(x)
	case *ast.ForStmt:
		t.forStmt(x)
	case *ast.WhileStmt:
		if !t.rewrites(x) {
			t.raw(x)
			return
		}
		t.releaseIfNeeded()
		t.pad("while (")
		printer.WriteExpr(t.e.sb, x.Cond)
		t.e.w(") {\n")
		t.loopBody(x.Body, t.in)
	default:
		if t.rewrites(s) {
			t.releaseIfNeeded()
		}
		t.raw(s)
	}
}

// containsReceiverWrite reports whether the subtree writes a receiver
// instance variable (which must happen under the lock).
func (t *bodyEmitter) containsReceiverWrite(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if asn, ok := x.(*ast.Assign); ok {
			switch lhs := asn.LHS.(type) {
			case *ast.Ident:
				if lhs.Sym == ast.SymField {
					found = true
				}
			case *ast.FieldAccess:
				if _, isThis := lhs.X.(*ast.ThisExpr); isThis {
					found = true
				}
			case *ast.IndexExpr:
				if id, ok2 := lhs.X.(*ast.Ident); ok2 && id.Sym == ast.SymField {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// ifStmt renders a conditional with the Figure 2 lock discipline: when
// the branches still perform receiver writes the lock stays held into
// them and each path releases before its invocations; otherwise the
// lock drops before the conditional.
func (t *bodyEmitter) ifStmt(x *ast.IfStmt) {
	if !t.rewrites(x) {
		t.raw(x)
		return
	}
	lockLogic := t.lockHeld && !t.mp.HoldsLockThrough
	if lockLogic && !t.containsReceiverWrite(x) {
		// No receiver state is written inside: the object section ends
		// here.
		t.releaseIfNeeded()
		lockLogic = false
	}

	heldAtEntry := t.lockHeld
	t.pad("if (")
	printer.WriteExpr(t.e.sb, x.Cond)
	t.e.w(") {\n")
	t.indent++
	t.lockHeld = heldAtEntry
	t.stmtsOf(x.Then)
	if lockLogic && t.lockHeld {
		t.line("mutex.release();")
	}
	t.indent--
	switch {
	case x.Else != nil:
		t.line("} else {")
		t.indent++
		t.lockHeld = heldAtEntry
		t.stmtsOf(x.Else)
		if lockLogic && t.lockHeld {
			t.line("mutex.release();")
		}
		t.indent--
		t.line("}")
	case lockLogic:
		t.line("} else {")
		t.line("  mutex.release();")
		t.line("}")
	default:
		t.line("}")
	}
	t.lockHeld = heldAtEntry && !lockLogic
}

// callStmt renders an expression statement: a call site does what the
// plan's call rule says (MethodPlan.Call).
func (t *bodyEmitter) callStmt(x *ast.ExprStmt) {
	call, ok := x.X.(*ast.CallExpr)
	if !ok || call.Builtin || call.Site < 0 {
		t.raw(x)
		return
	}
	sc := t.site(call)
	if sc.Release {
		t.releaseIfNeeded()
	}
	// The call with the callee renamed to the generated version.
	switch {
	case sc.Spawn:
		t.pad("spawn(")
		printer.WriteCall(t.e.sb, call, versionSuffix[sc.Run])
		t.e.w(");\n")
	case sc.Run != VersionSerial:
		t.pad()
		printer.WriteCall(t.e.sb, call, versionSuffix[sc.Run])
		t.e.w(";\n")
	case sc.Replica:
		t.pad("replica(")
		printer.WriteCall(t.e.sb, call, "")
		t.e.w(");\n")
	default:
		t.raw(x)
	}
}

// versionSuffix names the generated versions in the listing.
var versionSuffix = [...]string{VersionSerial: "", VersionParallel: "__parallel", VersionMutex: "__mutex"}

// forStmt renders a for loop: a parallel_for whose body runs as the
// iterations run it, or a serial loop whose body runs as this one does.
func (t *bodyEmitter) forStmt(x *ast.ForStmt) {
	in, close := t.in, ") {\n"
	switch {
	case t.parallelLoop(x):
		in, close = VersionIteration, ") {  // guided self-scheduling; iterations run mutex versions\n"
		t.releaseIfNeeded()
		t.pad("parallel_for (")
	case t.rewrites(x):
		t.releaseIfNeeded()
		t.pad("for (")
	default:
		t.raw(x)
		return
	}
	printer.WriteForHeader(t.e.sb, x)
	t.e.w(close)
	t.loopBody(x.Body, in)
}

// loopBody renders a loop's body, its header written, as version in.
func (t *bodyEmitter) loopBody(body ast.Stmt, in Version) {
	outer := t.in
	t.in = in
	t.indent++
	t.stmtsOf(body)
	t.indent--
	t.in = outer
	t.line("}")
}
