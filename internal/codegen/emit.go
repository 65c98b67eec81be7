package codegen

import (
	"strings"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/printer"
	"commute/internal/frontend/types"
)

// EmitParallelSource renders the transformed parallel program as
// annotated source in the style of the paper's Figure 2: every class
// that needs one gains a mutual exclusion lock, and every parallel
// method gains the three generated versions —
//
//   - the serial version (the original name), which invokes the
//     parallel version and blocks in the wait() construct;
//   - the parallel version (<name>__parallel), whose object section
//     executes under the receiver lock and whose invocation section
//     spawns the parallel versions of extent operations and runs
//     parallel loops under guided self-scheduling;
//   - the mutex version (<name>__mutex), which locks the object section
//     but invokes mutex versions serially (the §5.2 suppression).
//
// The output targets the run-time library API the paper's generated
// code used (lock.acquire/release, spawn, wait, parallel_for); it is a
// faithful rendering of the execution plan the in-process executors
// (internal/rt, internal/tracer) interpret directly.
func (p *Plan) EmitParallelSource(file *ast.File) string {
	e := &emitter{plan: p}
	// A parallel method is printed three times, everything else once.
	e.sb.Grow(3*file.Size + 256)
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
			printer.WriteDecl(&e.sb, d)
		}
		e.sb.WriteString("\n")
	}
	return e.sb.String()
}

// emitter writes the whole listing into one builder.
type emitter struct {
	plan *Plan
	sb   strings.Builder
}

func (e *emitter) w(parts ...string) {
	for _, s := range parts {
		e.sb.WriteString(s)
	}
}

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
// elimination pass kept it, and prototypes for the generated versions.
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
	printer.WriteMembers(&e.sb, cd)
	// Prototypes for generated versions.
	for _, proto := range cd.Protos {
		if m := e.methodByName(cd.Name, proto.Name); m != nil {
			if mp := e.plan.Methods[m]; mp != nil && mp.Parallel {
				for _, suffix := range [...]string{"__parallel", "__mutex"} {
					e.w("  void ", proto.Name, suffix, "(")
					printer.WriteParams(&e.sb, proto.Params)
					e.w(");\n")
				}
			}
		}
	}
	e.w("};\n")
}

// methodDef renders the generated versions of one method.
func (e *emitter) methodDef(md *ast.MethodDef) {
	m := e.methodByName(md.ClassName, md.Name)
	mp := e.plan.Methods[m]
	if m == nil || mp == nil || !mp.Parallel {
		printer.WriteDecl(&e.sb, md)
		return
	}

	// open writes a version's signature and opening brace.
	open := func(suffix string) {
		e.w("void ")
		if md.ClassName != "" {
			e.w(md.ClassName, "::")
		}
		e.w(md.Name, suffix, "(")
		printer.WriteParams(&e.sb, md.Params)
		e.w(") {\n")
	}

	// Serial version: invoke the parallel version, then wait.
	open("")
	e.w("  this->", md.Name, "__parallel(")
	for i, prm := range md.Params {
		if i > 0 {
			e.w(", ")
		}
		e.w(prm.Name)
	}
	e.w(");\n  wait();\n}\n\n")

	// Parallel version.
	open("__parallel")
	e.body(m, mp, md.Body, false)
	e.w("}\n\n")

	// Mutex version.
	open("__mutex")
	e.body(m, mp, md.Body, true)
	e.w("}\n")
}

// body renders a transformed method body with lock placement: the
// receiver lock (when required) covers the object section and is
// released on every control path before the first extent invocation
// (or at method end under hoisting).
func (e *emitter) body(m *types.Method, mp *MethodPlan, b *ast.Block, mutex bool) {
	t := &bodyEmitter{e: e, m: m, mp: mp, mutex: mutex, indent: 1}
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
	m        *types.Method
	mp       *MethodPlan
	mutex    bool
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

func (t *bodyEmitter) raw(s ast.Stmt) { printer.WriteStmt(&t.e.sb, s, t.indent) }

// releaseIfNeeded drops the lock before entering the invocation
// section, unless hoisting holds it through.
func (t *bodyEmitter) releaseIfNeeded() {
	if t.lockHeld && !t.mp.HoldsLockThrough {
		t.line("mutex.release();")
		t.lockHeld = false
	}
}

// containsExtentCall reports whether the subtree holds a call site of
// this method that does not run the serial version.
func (t *bodyEmitter) containsExtentCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if c, ok := x.(*ast.CallExpr); ok && !c.Builtin && c.Site >= 0 {
			site := t.e.plan.Prog.CallSites[c.Site]
			if t.mp.Call(t.version(), site, t.e.plan.Methods[site.Callee]).Run != VersionSerial {
				found = true
			}
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

func (t *bodyEmitter) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.Block:
		t.line("{")
		t.indent++
		t.stmts(x.Stmts)
		t.indent--
		t.line("}")
	case *ast.ExprStmt:
		t.exprStmt(x)
	case *ast.IfStmt:
		t.ifStmt(x)
	case *ast.ForStmt:
		t.forStmt(x)
	default:
		if t.containsExtentCall(s) {
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
	if !t.containsExtentCall(x) {
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
	printer.WriteExpr(&t.e.sb, x.Cond)
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

// stmtsOf renders a statement or a block's statements.
func (t *bodyEmitter) stmtsOf(s ast.Stmt) {
	if b, ok := s.(*ast.Block); ok {
		t.stmts(b.Stmts)
		return
	}
	t.stmt(s)
}

// version is the version of the method the body renders.
func (t *bodyEmitter) version() Version {
	if t.mutex {
		return VersionMutex
	}
	return VersionParallel
}

func (t *bodyEmitter) exprStmt(x *ast.ExprStmt) { t.callStmt(x, t.version()) }

// callStmt renders an expression statement of a body running as version
// in: a call site does what the plan's call rule says (MethodPlan.Call).
func (t *bodyEmitter) callStmt(x *ast.ExprStmt, in Version) {
	call, ok := x.X.(*ast.CallExpr)
	if !ok || call.Builtin || call.Site < 0 {
		t.raw(x)
		return
	}
	site := t.e.plan.Prog.CallSites[call.Site]
	sc := t.mp.Call(in, site, t.e.plan.Methods[site.Callee])
	if sc.Release {
		t.releaseIfNeeded()
	}
	// The call with the callee renamed to the generated version.
	switch {
	case sc.Spawn:
		t.pad("spawn(")
		printer.WriteCall(&t.e.sb, call, versionSuffix[sc.Run])
		t.e.w(");\n")
	case sc.Run != VersionSerial:
		t.pad()
		printer.WriteCall(&t.e.sb, call, versionSuffix[sc.Run])
		t.e.w(";\n")
	default:
		t.raw(x)
	}
}

// versionSuffix names the generated versions in the listing.
var versionSuffix = [...]string{VersionSerial: "", VersionParallel: "__parallel", VersionMutex: "__mutex"}

func (t *bodyEmitter) forStmt(x *ast.ForStmt) {
	lp := t.e.plan.Loops[x]
	if lp == nil || !lp.Parallel || t.mutex {
		if t.containsExtentCall(x) {
			t.releaseIfNeeded()
			// Serial loop over mutex versions inside the mutex variant.
			t.loopOverMutex(x, "for (", ") {\n")
			return
		}
		t.raw(x)
		return
	}
	t.releaseIfNeeded()
	t.loopOverMutex(x, "parallel_for (", ") {  // guided self-scheduling; iterations run mutex versions\n")
}

// loopOverMutex renders a loop under the given header frame whose
// invocations call mutex versions serially, as iterations run them.
func (t *bodyEmitter) loopOverMutex(x *ast.ForStmt, open, close string) {
	t.pad(open)
	printer.WriteForHeader(&t.e.sb, x)
	t.e.w(close)
	t.indent++
	if b, ok := x.Body.(*ast.Block); ok {
		for _, s := range b.Stmts {
			t.mutexStmt(s)
		}
	} else {
		t.mutexStmt(x.Body)
	}
	t.indent--
	t.line("}")
}

// mutexStmt renders a loop body statement: its call sites run as a
// parallel loop's iterations run them.
func (t *bodyEmitter) mutexStmt(s ast.Stmt) {
	if es, ok := s.(*ast.ExprStmt); ok {
		t.callStmt(es, VersionIteration)
		return
	}
	t.raw(s)
}
