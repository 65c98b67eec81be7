package codegen

import (
	"fmt"
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
	var sb strings.Builder
	sb.WriteString("// Automatically parallelized by commutativity analysis.\n")
	sb.WriteString("// Generated constructs: lock.acquire()/lock.release(), spawn(op),\n")
	sb.WriteString("// wait(), and parallel_for (guided self-scheduling).\n\n")
	for _, d := range file.Decls {
		switch x := d.(type) {
		case *ast.ClassDecl:
			sb.WriteString(e.classDecl(x))
			sb.WriteString("\n")
		case *ast.MethodDef:
			sb.WriteString(e.methodDef(x))
			sb.WriteString("\n")
		default:
			sb.WriteString(printer.File(&ast.File{Decls: []ast.Decl{d}}))
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

type emitter struct {
	plan *Plan
}

func (e *emitter) methodByName(className, name string) *types.Method {
	if className == "" {
		for _, m := range e.plan.Prog.Methods {
			if m.Class == nil && m.Name == name {
				return m
			}
		}
		return nil
	}
	cl := e.plan.Prog.Classes[className]
	if cl == nil {
		return nil
	}
	return cl.MethodByName(name)
}

// classDecl renders a class, adding the lock field when the lock
// elimination pass kept it, and prototypes for the generated versions.
func (e *emitter) classDecl(cd *ast.ClassDecl) string {
	var sb strings.Builder
	if cd.Base != "" {
		fmt.Fprintf(&sb, "class %s : public %s {\npublic:\n", cd.Name, cd.Base)
	} else {
		fmt.Fprintf(&sb, "class %s {\npublic:\n", cd.Name)
	}
	cl := e.plan.Prog.Classes[cd.Name]
	if cl != nil && e.plan.LockedClasses[cl] {
		sb.WriteString("  lock mutex;  // inserted: object sections execute atomically\n")
	}
	base := printer.File(&ast.File{Decls: []ast.Decl{cd}})
	// Reuse the plain printer for members, stripping the class frame.
	lines := strings.Split(base, "\n")
	for _, l := range lines[2 : len(lines)-2] {
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	// Prototypes for generated versions.
	for _, proto := range cd.Protos {
		if m := e.methodByName(cd.Name, proto.Name); m != nil {
			if mp := e.plan.Methods[m]; mp != nil && mp.Parallel {
				fmt.Fprintf(&sb, "  void %s__parallel(%s);\n", proto.Name, protoParams(proto.Params))
				fmt.Fprintf(&sb, "  void %s__mutex(%s);\n", proto.Name, protoParams(proto.Params))
			}
		}
	}
	sb.WriteString("};\n")
	return sb.String()
}

func protoParams(ps []*ast.Param) string {
	// Render via the printer's declarator logic by faking a prototype.
	proto := &ast.MethodProto{Name: "x", RetType: &ast.TypeExpr{Kind: ast.TVoid}, Params: ps}
	cd := &ast.ClassDecl{Name: "t", Protos: []*ast.MethodProto{proto}}
	out := printer.File(&ast.File{Decls: []ast.Decl{cd}})
	start := strings.Index(out, "x(")
	end := strings.LastIndex(out, ");")
	if start < 0 || end < 0 || end < start {
		return ""
	}
	return out[start+2 : end]
}

// methodDef renders the generated versions of one method.
func (e *emitter) methodDef(md *ast.MethodDef) string {
	m := e.methodByName(md.ClassName, md.Name)
	mp := e.plan.Methods[m]
	if m == nil || mp == nil || !mp.Parallel {
		return printer.File(&ast.File{Decls: []ast.Decl{md}})
	}

	var sb strings.Builder
	sig := func(suffix string) string {
		if md.ClassName != "" {
			return fmt.Sprintf("void %s::%s%s(%s)", md.ClassName, md.Name, suffix, protoParams(md.Params))
		}
		return fmt.Sprintf("void %s%s(%s)", md.Name, suffix, protoParams(md.Params))
	}

	// Serial version: invoke the parallel version, then wait.
	fmt.Fprintf(&sb, "%s {\n", sig(""))
	args := make([]string, len(md.Params))
	for i, prm := range md.Params {
		args[i] = prm.Name
	}
	fmt.Fprintf(&sb, "  this->%s__parallel(%s);\n  wait();\n}\n\n", md.Name, strings.Join(args, ", "))

	// Parallel version.
	fmt.Fprintf(&sb, "%s {\n", sig("__parallel"))
	sb.WriteString(e.body(m, mp, md.Body, false))
	sb.WriteString("}\n\n")

	// Mutex version.
	fmt.Fprintf(&sb, "%s {\n", sig("__mutex"))
	sb.WriteString(e.body(m, mp, md.Body, true))
	sb.WriteString("}\n")
	return sb.String()
}

// body renders a transformed method body with lock placement: the
// receiver lock (when required) covers the object section and is
// released on every control path before the first extent invocation
// (or at method end under hoisting).
func (e *emitter) body(m *types.Method, mp *MethodPlan, b *ast.Block, mutex bool) string {
	t := &bodyEmitter{e: e, m: m, mp: mp, mutex: mutex, indent: 1}
	if mp.NeedsLock {
		t.line("mutex.acquire();")
		t.lockHeld = true
	}
	t.stmts(b.Stmts)
	if t.lockHeld {
		t.line("mutex.release();")
	}
	return t.sb.String()
}

type bodyEmitter struct {
	e        *emitter
	m        *types.Method
	mp       *MethodPlan
	mutex    bool
	indent   int
	lockHeld bool
	sb       strings.Builder
}

func (t *bodyEmitter) line(format string, a ...any) {
	t.sb.WriteString(strings.Repeat("  ", t.indent))
	fmt.Fprintf(&t.sb, format, a...)
	t.sb.WriteString("\n")
}

func (t *bodyEmitter) raw(s ast.Stmt) {
	t.sb.WriteString(printer.Stmt(s, t.indent))
}

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
	t.line("if (%s) {", printer.Expr(x.Cond))
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
	switch {
	case sc.Spawn:
		t.line("spawn(%s);", t.renamedCall(call, versionSuffix[sc.Run]))
	case sc.Run != VersionSerial:
		t.line("%s;", t.renamedCall(call, versionSuffix[sc.Run]))
	default:
		t.raw(x)
	}
}

// versionSuffix names the generated versions in the listing.
var versionSuffix = [...]string{VersionSerial: "", VersionParallel: "__parallel", VersionMutex: "__mutex"}

// renamedCall prints the call with the callee renamed to a generated
// version.
func (t *bodyEmitter) renamedCall(call *ast.CallExpr, suffix string) string {
	out := printer.Expr(call)
	// Rename the method at its invocation point: the method name is
	// followed by "(" in the rendered call.
	idx := strings.LastIndex(out, call.Method+"(")
	if idx < 0 {
		return out
	}
	return out[:idx] + call.Method + suffix + out[idx+len(call.Method):]
}

func (t *bodyEmitter) forStmt(x *ast.ForStmt) {
	lp := t.e.plan.Loops[x]
	if lp == nil || !lp.Parallel || t.mutex {
		if t.containsExtentCall(x) {
			t.releaseIfNeeded()
			// Serial loop over mutex versions inside the mutex variant.
			t.serialLoopOverMutex(x)
			return
		}
		t.raw(x)
		return
	}
	t.releaseIfNeeded()
	header := loopHeader(x)
	t.line("parallel_for (%s) {  // guided self-scheduling; iterations run mutex versions", header)
	t.indent++
	body := x.Body
	if b, ok := body.(*ast.Block); ok {
		for _, s := range b.Stmts {
			t.mutexStmt(s)
		}
	} else {
		t.mutexStmt(body)
	}
	t.indent--
	t.line("}")
}

// serialLoopOverMutex renders a loop whose invocations call mutex
// versions serially.
func (t *bodyEmitter) serialLoopOverMutex(x *ast.ForStmt) {
	t.line("for (%s) {", loopHeader(x))
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

// loopHeader reconstructs "init; cond; post" text.
func loopHeader(x *ast.ForStmt) string {
	init, cond, post := "", "", ""
	if x.Init != nil {
		init = strings.TrimSuffix(strings.TrimSpace(printer.Stmt(x.Init, 0)), ";")
	}
	if x.Cond != nil {
		cond = printer.Expr(x.Cond)
	}
	if x.Post != nil {
		post = strings.TrimSuffix(strings.TrimSpace(printer.Stmt(x.Post, 0)), ";")
	}
	return init + "; " + cond + "; " + post
}
