package codegen

// Expression emission and call-site dispatch: which version a call site
// runs, whether its value survives, and whether it spawns. Inside a
// region the plan's call rule says (MethodPlan.Call); in the serial
// context of a parallel run, Plan.RegionRoot.
//
// Expressions are written the way gofmt prints them, so every renderer
// takes the nesting depth d its text lands at (go/printer's binaryExpr:
// 1 at statement level, one more inside a binary operand, a call with
// several arguments or an index; parentheses take one level back off).
// Depth decides one thing: below level 1 arithmetic operators lose
// their blanks.

import (
	"bytes"
	"math"
	"strconv"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
)

// callKind classifies a call site's lowering.
type callKind int

const (
	ckValue   callKind = iota // plain call, value preserved
	ckRegion                  // serial context enters a region; the root returns no value
	ckSpawn                   // spawned as a task; value discarded
	ckEffectX                 // mutex version, or serial on a replica, runs inline; value discarded
)

// callPlan is the lowering decision for one call site in the current
// mode.
type callPlan struct {
	kind    callKind
	callee  *types.Method
	v       variant       // the version called
	release bool          // release the receiver lock, if still held, before the call
	replica *types.Global // run on the executing worker's replica of this global
}

// call plans a call of callee's version v — inside a speculative body,
// of v's journaled twin: the task's journal goes down every call, so a
// journaled subtree stays journaled — and demands it.
func (c *fnCtx) call(kind callKind, callee *types.Method, v variant) callPlan {
	if c.spec {
		v = versions[v].twin
	}
	c.e.demand(callee, v)
	return callPlan{kind: kind, callee: callee, v: v}
}

// siteDispatch decides how a non-builtin call site lowers in the
// current mode: each rule names the proven version, and call takes its
// journaled twin inside a speculative body.
func (c *fnCtx) siteDispatch(x *ast.CallExpr) callPlan {
	site := c.e.prog.CallSites[x.Site]
	callee := site.Callee
	if c.mode == mD {
		// A call of a region root goes through its R_ wrapper, which
		// decides what the entry runs as; everything else — a method
		// that returns a value included — stays in the serial context.
		switch {
		case c.e.plan.RegionRoot(callee):
			return c.call(ckRegion, callee, varR)
		case c.e.needDriver(callee):
			return c.call(ckValue, callee, varD)
		}
		return c.call(ckValue, callee, varS)
	}
	sc := c.mp.Call(modeVersion[c.mode], site, c.e.plan.Methods[callee])
	kind := ckValue
	switch {
	case sc.Spawn:
		kind = ckSpawn
	case sc.Replica && c.spec:
		// The journal isolates the accumulation: the mutex twin.
		kind, sc.Run = ckEffectX, VersionMutex
	case sc.Run == VersionMutex || sc.Replica:
		kind = ckEffectX
	}
	cp := c.call(kind, callee, runVariant[sc.Run])
	if sc.Replica && !c.spec {
		cp.replica = c.e.prog.Globals[x.Recv.(*ast.Ident).Name]
		c.e.replicas[cp.replica] = true
	}
	// A speculative body holds no lock.
	cp.release = sc.Release && c.locked
	return cp
}

// recvChain writes the receiver expression of a call to callee,
// inserting the as_ accessor that narrows to the callee's declaring
// class (also resolving interface receivers to concrete pointers).
// recvValue says it writes the object rather than a pointer to it: a
// nested object, or a bound parameter dereferenced — a Go call through a
// nil pointer does not fault, so `(*b_n)` is what faults where
// `v_n.as_C()` did.
func (c *fnCtx) recvChain(x *ast.CallExpr, callee *types.Method, d int) *fnCtx {
	switch p := c.binding(x.Recv); {
	case x.Recv == nil: // implicit this->m(...)
		if c.w("o"); c.m.Class == callee.Class {
			return c
		}
	case p != nil && c.recvValue(x, callee):
		return c.w("(*b_", p.Name, ")")
	case p != nil:
		c.w("b_", p.Name)
	default:
		if c.expr(x.Recv, d); c.recvPlain(x, callee) {
			return c
		}
	}
	return c.w(".as_", callee.Class.Name, "()")
}

func (c *fnCtx) recvValue(x *ast.CallExpr, callee *types.Method) bool {
	if p := c.binding(x.Recv); p != nil {
		return p.Type.(types.Pointer).Class == callee.Class
	}
	return x.Recv != nil && c.recvPlain(x, callee) && c.byValue(x.Recv)
}

// bindings lists the parameters of m a version binds once, at its top, to
// the concrete pointer of their class, b_<name> := asI_<class>(v_<name>):
// pointers to a class with subclasses, emitted as the I_ interface, that
// the body never assigns and reads a field or calls a method through. A
// field read or a call through one then renders through the binding, a
// static call Go can inline, instead of an interface call per use (recvChain,
// fieldSel); comparisons, casts and arguments keep the parameter. The
// binding is nil-safe, so a NULL parameter tested before use stays
// harmless, and a NULL one used faults at the same statement.
func (e *goEmitter) bindings(m *types.Method) []*types.Param {
	var out []*types.Param
	var assigned map[string]bool
	for _, p := range m.Params {
		if pt, ok := p.Type.(types.Pointer); !ok || !e.reprIface(pt.Class) || !usedThrough(m.Def.Body, p.Name) {
			continue
		}
		if assigned == nil {
			assigned = ast.AssignedVars(m.Def.Body)
		}
		if !assigned[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// usedThrough reports whether body reads a field of, or calls a method
// on, the object parameter name points to.
func usedThrough(body ast.Node, name string) bool {
	param := func(x ast.Expr) bool {
		id, ok := x.(*ast.Ident)
		return ok && id.Sym == ast.SymParam && id.Name == name
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FieldAccess:
			found = found || param(x.X)
		case *ast.CallExpr:
			found = found || param(x.Recv)
		}
		return !found
	})
	return found
}

// binding returns the parameter x reads, when x is a parameter the
// version binds (b_<name>); nil otherwise.
func (c *fnCtx) binding(x ast.Expr) *types.Param {
	if id, ok := x.(*ast.Ident); ok && id.Sym == ast.SymParam {
		for _, p := range c.bound {
			if p.Name == id.Name {
				return p
			}
		}
	}
	return nil
}

// byValue reports whether x renders as a struct value: a nested object.
// (A global is an object too, and renders as the pointer to it.)
func (c *fnCtx) byValue(x ast.Expr) bool {
	_, object := c.e.prog.TypeOf(x).(types.Object)
	id, _ := x.(*ast.Ident)
	return object && (id == nil || id.Sym != ast.SymGlobal)
}

// recvPlain reports whether the explicit receiver of x already is a
// concrete value of, or pointer to, callee's declaring class: recvChain
// needs no accessor.
func (c *fnCtx) recvPlain(x *ast.CallExpr, callee *types.Method) bool {
	return ptrClass(c.e.prog.TypeOf(x.Recv)) == callee.Class && !c.e.exprIface(x.Recv)
}

// renderCall writes a lowered call expression. A call with more than
// one argument prints its receiver and its arguments one level deeper.
func (c *fnCtx) renderCall(x *ast.CallExpr, cp callPlan, d int) *fnCtx {
	n, thread := min(len(x.Args), len(cp.callee.Params)), len(versions[cp.v].thread)
	if thread+n > 1 {
		d++
	}
	switch g := cp.replica; {
	case g != nil:
		if c.w("rep_", g.Name, ".At(w)"); !c.recvPlain(x, cp.callee) {
			c.w(".as_", cp.callee.Class.Name, "()")
		}
		c.w(".")
	case cp.callee.Class != nil:
		c.recvChain(x, cp.callee, d).w(".")
	}
	c.w(versions[cp.v].prefix, cp.callee.Name, "(").threadArgs(cp.v, "w", 0)
	for i, a := range x.Args[:n] {
		c.sep(thread+i).exprAs(a, cp.callee.Params[i].Type, d)
	}
	return c.w(")")
}

// exprStmt lowers an expression statement.
func (c *fnCtx) exprStmt(x ast.Expr) {
	switch v := x.(type) {
	case *ast.Assign:
		c.assign(v)
	case *ast.CallExpr:
		switch {
		case !v.Builtin:
			c.effectCall(v, c.siteDispatch(v))
		case v.Method == "print":
			c.printStmt(v)
		default:
			c.begin("_ = ").builtinCall(v, 1).end()
		}
	default:
		c.begin("_ = ").expr(x, 1).end()
	}
}

// effectCall lowers a call whose value is not used.
func (c *fnCtx) effectCall(x *ast.CallExpr, cp callPlan) {
	if cp.kind == ckSpawn {
		c.spawn(x, cp)
		return
	}
	if cp.release {
		c.releaseLock()
	}
	c.begin().renderCall(x, cp, 1).end()
}

// spawn lowers a spawned call: evaluate receiver and arguments now (the
// interpreter evaluates them in the caller before enqueuing the task),
// release the receiver lock when the rule says so, and push a task
// running the version it named. An array actual is snapshotted, as the
// interpreter runtime's spawn does: the task reads it as of the call.
func (c *fnCtx) spawn(x *ast.CallExpr, cp callPlan) {
	callee := cp.callee
	c.line("{")
	c.indent++
	rv := 0
	if callee.Class != nil {
		// Narrow interface receivers to the concrete declaring class; the
		// task takes a nested object's address.
		rv = c.newTmp()
		if c.begin("var ").tmpVar(rv).w(" *T_", callee.Class.Name, " = "); c.recvValue(x, callee) {
			c.w("&")
		}
		c.recvChain(x, callee, 1).end()
	}
	n, first := min(len(x.Args), len(callee.Params)), c.tmp+1
	for i, a := range x.Args[:n] {
		av, pt := c.newTmp(), callee.Params[i].Type
		switch {
		case !sliceParam(pt):
			c.begin("var ").tmpVar(av).w(" ").typ(pt, true).w(" = ").exprAs(a, pt, 1).end()
		case c.spec:
			// The spawner's buffered writes are in its journal.
			c.begin().tmpVar(av).w(" := nativert.SpecSnapshot(sj_, ").exprAs(a, pt, 1).w(")").end()
		default:
			// A reference actual of an extent call is a local array (Fig.
			// 10), a Go array, which the declaration copies.
			c.begin("var ").tmpVar(av).w(" = ").expr(a, 1).end()
		}
	}
	// A speculative task gets a fresh journal, and captures panics so a
	// faulting task aborts the region instead of killing the pool
	// goroutine.
	jv := 0
	if c.spec {
		jv = c.newTmp()
		c.begin().tmpVar(jv).w(" := sr_.NewJournal()").end()
	}
	if cp.release {
		c.releaseLock()
	}
	c.e.useRtkit = true
	c.begin("w.Pool().Spawn(w, ").fullName(callee).w(", func(cw_ *rtkit.Worker) {").end()
	if c.spec {
		c.line("\tdefer sr_.CapturePanic()")
	}
	if c.begin("\t"); rv > 0 {
		c.tmpVar(rv).w(".")
	}
	c.w(versions[cp.v].prefix, callee.Name, "(").threadArgs(cp.v, "cw_", jv)
	for i := range n {
		if c.sep(len(versions[cp.v].thread) + i).tmpVar(first + i); sliceParam(callee.Params[i].Type) && !c.spec {
			c.w("[:]")
		}
	}
	c.w(")").end()
	c.line("})")
	c.indent--
	c.line("}")
}

// sliceParam reports whether a parameter of type t is a Go slice.
func sliceParam(t types.Type) bool {
	_, prim := t.(types.PrimPointer)
	_, array := t.(types.Array)
	return prim || array
}

// newTmp numbers a fresh temporary; tmpVar writes its name.
func (c *fnCtx) newTmp() int { c.tmp++; return c.tmp }

func (c *fnCtx) tmpVar(n int) *fnCtx { return c.w("t").int(int64(n)).w("_") }

// ---------------------------------------------------------------------
// Assignment

func (c *fnCtx) assign(a *ast.Assign) {
	lt := c.e.prog.TypeOf(a.LHS)
	if _, _, shared := specKey(a.LHS); c.spec && shared {
		c.specAssign(a, lt)
		return
	}
	if a.Op == token.ASSIGN {
		if call, ok := a.RHS.(*ast.CallExpr); ok && !call.Builtin {
			if cp := c.siteDispatch(call); cp.kind != ckValue {
				// The discarded-value call kinds store a zero value
				// (the interpreter stores the spawned call's Value{},
				// which reads back as the type's zero).
				c.effectCall(call, cp)
				c.begin().expr(a.LHS, 1).w(" = ").zero(lt).end()
				return
			}
		}
		c.begin().expr(a.LHS, 1).w(" = ").exprAs(a.RHS, lt, 1).end()
		return
	}
	// Compound assignment: int op int stays int; any double promotes
	// the arithmetic to double, then the store coerces back to the
	// target type (truncating for int targets). The target is read as an
	// operand of the fenced operation, one level below the statement.
	op := goOp[a.Op]
	if op == "" {
		c.errf("unsupported compound assignment %v", a.Op)
		return
	}
	switch c.begin().expr(a.LHS, 1); {
	case isIntType(lt) && isIntType(c.e.prog.TypeOf(a.RHS)):
		c.w(" ", op, "= ").divisor(a.Op == token.SLASHEQ, a.RHS, 1)
	case isIntType(lt):
		c.w(" = int64(float64(").floatOperand(a.LHS, 2).w(" ", op, " ").floatOperand(a.RHS, 2).w("))")
	default:
		c.w(" = float64(").floatOperand(a.LHS, 2).w(" ", op, " ").floatOperand(a.RHS, 2).w(")")
	}
	c.end()
}

// specKey is the declared-effect key of an assignment target (an
// element's is empty) and whether the target is shared state, which a
// speculative task writes through its journal (specAssign). Locals and
// parameters are frame-private and keep the plain lowering (shared reads
// inside their RHS still journal through expr).
func specKey(x ast.Expr) (class, field string, shared bool) {
	switch v := x.(type) {
	case *ast.Ident:
		return v.FieldClass, v.Name, v.Sym == ast.SymField
	case *ast.FieldAccess:
		return v.DeclClass, v.Name, true
	case *ast.IndexExpr:
		return "", "", true
	}
	return "", "", false
}

// specAddr writes the journal address of a shared assignment target.
// Wherever specAssign puts it, its parentheses bring the location back
// to depth 1.
func (c *fnCtx) specAddr(x ast.Expr) *fnCtx {
	switch v := x.(type) {
	case *ast.Ident:
		c.w("&(").fieldOf(v.FieldClass, v.Name)
	case *ast.FieldAccess:
		// Rendering the base journals the chain's own loads.
		c.w("&(").fieldSel(v, 1)
	case *ast.IndexExpr:
		c.w("&(").expr(v.X, 1).w("[").expr(v.Index, 2).w("]")
	}
	return c.w(")")
}

// specAssign lowers an assignment to shared state inside a speculative
// task: the write is buffered in the journal and never reaches the
// live heap before commit. The right-hand side is evaluated into a
// temporary first, matching the interpreter's evaluation order.
func (c *fnCtx) specAssign(a *ast.Assign, lt types.Type) {
	class, field, _ := specKey(a.LHS)
	if a.Op == token.ASSIGN {
		if call, ok := a.RHS.(*ast.CallExpr); ok && !call.Builtin {
			if cp := c.siteDispatch(call); cp.kind != ckValue {
				c.effectCall(call, cp)
				c.begin("nativert.SpecStore(sj_, ").specAddr(a.LHS).w(", ").zero(lt).w(", ").desc(class, field).w(")").end()
				return
			}
		}
		rv := c.newTmp()
		c.begin("var ").tmpVar(rv).w(" ").typ(lt, false).w(" = ").exprAs(a.RHS, lt, 1).end()
		c.begin("nativert.SpecStore(sj_, ").specAddr(a.LHS).w(", ").tmpVar(rv).w(", ").desc(class, field).w(")").end()
		return
	}
	op := goOp[a.Op]
	if op == "" {
		c.errf("unsupported compound assignment %v", a.Op)
		return
	}
	rt := c.e.prog.TypeOf(a.RHS)
	rv, pv, ov := c.newTmp(), c.newTmp(), c.newTmp()
	c.begin("var ").tmpVar(rv).w(" ").typ(rt, false).w(" = ").expr(a.RHS, 1).end()
	c.begin().tmpVar(pv).w(" := ").specAddr(a.LHS).end()
	c.begin().tmpVar(ov).w(" := nativert.SpecLoad(sj_, ").tmpVar(pv).w(", ").desc(class, field).w(")").end()
	// The operation is an argument of SpecStore: depth 2.
	switch c.begin("nativert.SpecStore(sj_, ").tmpVar(pv).w(", "); {
	case isIntType(lt) && isIntType(rt):
		c.tmpVar(ov).w(op).tmpVar(rv)
	case isIntType(lt):
		c.w("int64(float64(float64(").tmpVar(ov).w(")", op).tmpVar(rv).w("))")
	case isIntType(rt):
		c.w("float64(").tmpVar(ov).w(op, "float64(").tmpVar(rv).w("))")
	default:
		c.w("float64(").tmpVar(ov).w(op).tmpVar(rv).w(")")
	}
	c.w(", ").desc(class, field).w(")").end()
}

func isIntType(t types.Type) bool {
	b, ok := t.(types.Basic)
	return ok && b == types.Int
}

func isDoubleType(t types.Type) bool {
	b, ok := t.(types.Basic)
	return ok && b == types.Double
}

// ---------------------------------------------------------------------
// Conversions

// convOpen writes the opening of src's conversion from its checked type
// to the target type — the dialect's implicit numeric coercions, array
// decay to slices at call boundaries, and nil-safe concrete-to-interface
// pointer widening — and returns what closes it after src.
func (c *fnCtx) convOpen(src ast.Expr, from, to types.Type) string {
	if from == nil || to == nil {
		return ""
	}
	switch tt := to.(type) {
	case types.Basic:
		switch {
		case tt == types.Int && isDoubleType(from):
			c.w("int64(")
			return ")"
		case tt == types.Double && isIntType(from):
			c.w("float64(")
			return ")"
		}
	case types.Pointer:
		if b, ok := from.(types.Basic); ok && b == types.Null {
			return "" // untyped nil assigns to both reprs
		}
		fc := ptrClass(from)
		if fc == nil || !c.e.reprIface(tt.Class) {
			return ""
		}
		if c.e.exprIface(src) {
			return "" // interface-to-interface widening is implicit
		}
		if _, ok := src.(*ast.NewExpr); ok {
			return "" // never nil; implicit conversion is safe
		}
		c.e.use(c.b, helperToI, fc, tt.Class)
		c.w("(")
		return ")"
	case types.PrimPointer, types.Array:
		// Parameter position: dialect arrays pass by reference, and an
		// array a parameter holds is a slice already.
		_, prim := to.(types.PrimPointer)
		id, _ := src.(*ast.Ident)
		if fa, ok := from.(types.Array); ok && (prim || fa.Len >= 0) && (id == nil || id.Sym != ast.SymParam) {
			return "[:]"
		}
	}
	return ""
}

// exprAs writes x converted to the type its context expects. A sliced
// array operand prints at depth 1 wherever it stands. A double constant
// stored into an int prints as the integer the interpreter's store
// coercion makes of it, int64(f): Go rejects a constant conversion that
// truncates.
func (c *fnCtx) exprAs(x ast.Expr, to types.Type, d int) *fnCtx {
	from := c.e.prog.TypeOf(x)
	if isIntType(to) && isDoubleType(from) {
		if v, ok := c.e.prog.ConstValue(x); ok {
			n := int64(v.AsFloat())
			return c.paren("(", n >= 0).int(n).paren(")", n >= 0)
		}
	}
	if _, ok := from.(types.Array); ok {
		d = 1
	}
	end := c.convOpen(x, from, to)
	return c.expr(x, d).w(end)
}

// ---------------------------------------------------------------------
// Expressions

// reduceDepth is what a pair of parentheses does to the depth of the
// expression inside it.
func reduceDepth(d int) int { return max(d-1, 1) }

// clause writes the condition of an if or for statement: gofmt prints
// it at depth 1 and without the parentheses expr puts around an
// operator used as an operand.
func (c *fnCtx) clause(x ast.Expr) *fnCtx {
	switch v := x.(type) {
	case *ast.Unary:
		return c.unary(v, 1)
	case *ast.Binary:
		return c.binary(v, 1, true)
	}
	return c.expr(x, 1)
}

func (c *fnCtx) expr(x ast.Expr, d int) *fnCtx {
	switch v := x.(type) {
	case *ast.IntLit:
		c.int(v.Value)
	case *ast.FloatLit:
		writeFloatLit(c.b, v.Value)
	case *ast.BoolLit:
		c.w(strconv.FormatBool(v.Value))
	case *ast.NullLit:
		c.w("nil")
	case *ast.StringLit:
		c.b.Write(strconv.AppendQuote(c.b.AvailableBuffer(), v.Value))
	case *ast.ThisExpr:
		c.w("o")
	case *ast.Ident:
		c.ident(v)
	case *ast.FieldAccess:
		// The depth carries over into a SpecLoad: its argument list adds a
		// level and the parentheses of its address take it back. (An
		// array, under a SpecTouch, only ever stands at depth 1: indexed
		// here, or sliced by exprAs.)
		c.load(x, v.DeclClass, v.Name, func() { c.fieldSel(v, d) })
	case *ast.IndexExpr:
		// An indexed operand prints at depth 1, its index one level down
		// — at the same depths inside a SpecLoad's address. Element
		// locations carry no descriptor: the access reached the array
		// through a monitored field load, whose key vouches for the whole
		// aggregate.
		c.load(x, "", "", func() { c.expr(v.X, 1).w("[").expr(v.Index, d+1).w("]") })
	case *ast.NewExpr:
		c.w("&T_", v.ClassName, "{}")
	case *ast.CastExpr:
		c.cast(v, d)
	case *ast.Unary:
		if !c.constant(x) {
			c.w("(").unary(v, reduceDepth(d)).w(")")
		}
	case *ast.Binary:
		if !c.constant(x) {
			c.binary(v, d, false)
		}
	case *ast.CallExpr:
		if !v.Builtin {
			if cp := c.siteDispatch(v); cp.kind == ckValue {
				return c.renderCall(v, cp, d)
			}
			c.errf("call with discarded result used as a value (site %d)", v.Site)
			return c.zero(c.e.prog.TypeOf(v))
		}
		if v.Method != "print" {
			return c.builtinCall(v, d)
		}
		c.errf("print used as a value")
		c.w("0")
	case *ast.Assign:
		c.errf("assignment used as a value")
		c.w("0")
	default:
		c.errf("unsupported expression %T", x)
		c.w("0")
	}
	return c
}

// constant writes an operation on constants only as its value, folded
// with the interpreter's run-time arithmetic (types.Program.ConstValue),
// and reports whether x was one. Go evaluates a constant expression
// exactly, so `0.1 + 0.2` left to it is 0.3, not the interpreter's
// 0.30000000000000004, and `9223372036854775807 + 1` does not compile.
// A negative value is parenthesised, and a value no Go constant spells
// (an infinity, a NaN, -0) is the call that makes its bits.
func (c *fnCtx) constant(x ast.Expr) bool {
	v, ok := c.e.prog.ConstValue(x)
	switch f := v.F; {
	case !ok:
	case v.IsInt:
		c.paren("(", v.I >= 0).int(v.I).paren(")", v.I >= 0)
	case math.IsInf(f, 0) || math.IsNaN(f) || f == 0 && math.Signbit(f):
		c.e.useMath = true
		c.w("math.Float64frombits(0x")
		c.b.Write(strconv.AppendUint(c.b.AvailableBuffer(), math.Float64bits(f), 16))
		c.w(")")
	default:
		c.paren("(", f >= 0)
		writeFloatLit(c.b, f)
		c.paren(")", f >= 0)
	}
	return ok
}

// divisor writes the right operand of an integer division when div, or
// any other operand, at depth d. Go rejects a division by a constant
// zero, so that divisor is zero_, a variable: the division fails at run
// time, as the interpreter's does.
func (c *fnCtx) divisor(div bool, y ast.Expr, d int) *fnCtx {
	if v, ok := c.e.prog.ConstValue(y); !div || !ok || !v.IsInt || v.I != 0 {
		return c.expr(y, d)
	}
	c.e.use(c.b, helperZero)
	return c
}

// load writes a load of x, the location addr writes. In a speculative
// body it goes through the task's journal with its declared-effect key:
// an aggregate (an embedded array, a nested object) stays addressable
// for the caller to index, select or call through — SpecTouch logs the
// read, and the inner accesses journal their own locations — anything
// else is the journal's view: the task's buffered write, or the heap's.
func (c *fnCtx) load(x ast.Expr, class, field string, addr func()) *fnCtx {
	if !c.spec {
		addr()
		return c
	}
	open, end := "nativert.SpecLoad(sj_, &(", ")"
	switch c.e.prog.TypeOf(x).(type) {
	case types.Array, types.Object:
		open, end = "(*nativert.SpecTouch(sj_, &(", "))"
	}
	c.w(open)
	addr()
	return c.w("), ").desc(class, field).w(end)
}

// desc writes a declared-effect key, class.field, quoted: both are
// identifiers, which need no escapes. An element's key is empty.
func (c *fnCtx) desc(class, field string) *fnCtx {
	if class == "" {
		return c.w(`""`)
	}
	return c.w(`"`, class, ".", field, `"`)
}

// fieldSel writes the selector of a field access, through the as_
// accessor of the field's declaring class unless the base expression
// already is a concrete pointer to that class.
func (c *fnCtx) fieldSel(v *ast.FieldAccess, d int) *fnCtx {
	if p := c.binding(v.X); p != nil {
		if c.w("b_", p.Name); p.Type.(types.Pointer).Class.Name != v.DeclClass {
			c.w(".as_", v.DeclClass, "()")
		}
		return c.w(".F_", v.Name)
	}
	c.expr(v.X, d)
	if bcl := ptrClass(c.e.prog.TypeOf(v.X)); bcl == nil || bcl.Name != v.DeclClass || c.e.exprIface(v.X) {
		c.w(".as_", v.DeclClass, "()")
	}
	return c.w(".F_", v.Name)
}

// fieldOf writes the receiver's field name, declared in class.
func (c *fnCtx) fieldOf(class, name string) *fnCtx {
	if c.m.Class != nil && c.m.Class.Name == class {
		return c.w("o.F_", name)
	}
	return c.w("o.as_", class, "().F_", name)
}

// unary writes a prefix operator without the parentheses it carries
// as an operand.
func (c *fnCtx) unary(v *ast.Unary, d int) *fnCtx {
	switch v.Op {
	case token.MINUS:
		return c.w("-").expr(v.X, d)
	case token.NOT:
		return c.w("!").expr(v.X, d)
	}
	c.errf("unsupported unary operator %v", v.Op)
	return c.w("0")
}

func (c *fnCtx) ident(v *ast.Ident) *fnCtx {
	switch v.Sym {
	case ast.SymLocal, ast.SymParam:
		return c.w("v_", v.Name)
	case ast.SymConst:
		return c.w("C_", v.Name)
	case ast.SymGlobal:
		return c.w("G_", v.Name)
	case ast.SymField:
		return c.load(v, v.FieldClass, v.Name, func() { c.fieldOf(v.FieldClass, v.Name) })
	}
	c.errf("unresolved identifier %s", v.Name)
	return c.w("0")
}

// appendFloatLit appends a float literal so Go reads back the same
// float64 bit pattern, keeping a decimal point or exponent so the
// literal stays floating-typed.
func appendFloatLit(dst []byte, v float64) []byte {
	s := strconv.AppendFloat(dst, v, 'g', -1, 64)
	if !bytes.ContainsAny(s[len(dst):], ".eE") {
		s = append(s, ".0"...)
	}
	return s
}

func writeFloatLit(b *bytes.Buffer, v float64) { b.Write(appendFloatLit(b.AvailableBuffer(), v)) }

func (c *fnCtx) cast(v *ast.CastExpr, d int) *fnCtx {
	tc := c.e.prog.Classes[v.ClassName]
	sc := ptrClass(c.e.prog.TypeOf(v.X))
	end := ""
	switch {
	case tc == nil || sc == nil:
		c.errf("cast with unresolved classes")
	case sc == tc:
	case sc.InheritsFrom(tc):
		// Upcast: same object, possibly widened to the base interface.
		end = c.convOpen(v.X, types.Pointer{Class: sc}, types.Pointer{Class: tc})
	case tc.InheritsFrom(sc):
		// Downcast: runtime-checked, nil on failure (and on nil input),
		// exactly like the interpreter's castValue.
		if c.e.reprIface(tc) {
			c.e.use(c.b, helperDCI, sc, tc)
		} else {
			c.e.use(c.b, helperDC, sc, tc)
		}
		c.w("(")
		end = ")"
	default:
		c.errf("cast between unrelated classes %s and %s", sc.Name, tc.Name)
	}
	return c.expr(v.X, d).w(end)
}

// goOp spells the dialect's arithmetic, compound-assignment and ordering
// operators in Go.
var goOp = map[token.Kind]string{
	token.PLUS: "+", token.MINUS: "-", token.STAR: "*", token.SLASH: "/", token.PERCENT: "%",
	token.PLUSEQ: "+", token.MINUSEQ: "-", token.STAREQ: "*", token.SLASHEQ: "/",
	token.LT: "<", token.GT: ">", token.LEQ: "<=", token.GEQ: ">=",
	token.EQ: "==", token.NEQ: "!=", token.AND: "&&", token.OR: "||",
}

// goBuiltin names the math-package function behind each math builtin.
var goBuiltin = map[string]string{
	"sqrt": "math.Sqrt", "fabs": "math.Abs", "exp": "math.Exp",
	"log": "math.Log", "floor": "math.Floor", "sin": "math.Sin",
	"cos": "math.Cos", "pow": "math.Pow",
}

// arith writes an arithmetic operator as gofmt prints one at depth d:
// blanks at depth 1 only. (Every operand the emitter writes is a
// primary expression, so go/printer's other spacing rules — mixed
// precedence, clashing unary operands — never apply.)
func (c *fnCtx) arith(op string, d int) *fnCtx {
	if d > 1 {
		return c.w(op)
	}
	return c.w(" ", op, " ")
}

// paren writes one of the parentheses around an operator expression used
// as an operand; a control clause takes it bare.
func (c *fnCtx) paren(s string, bare bool) *fnCtx {
	if bare {
		return c
	}
	return c.w(s)
}

// binary lowers a binary operator. Every float operation is wrapped in
// an explicit float64 conversion: the Go spec permits fusing `a*b + c`
// into an FMA unless the result is "explicitly rounded by a
// conversion", and the interpreter's arithmetic rounds after every
// operation — the conversions make native floats bit-identical. The
// conversion keeps the depth; every other form is parenthesised (bare
// only as a control clause, at depth 1), which takes a level off, and
// operands print one level below their operator.
func (c *fnCtx) binary(v *ast.Binary, d int, bare bool) *fnCtx {
	ints := isIntType(c.e.prog.TypeOf(v.X)) && isIntType(c.e.prog.TypeOf(v.Y))
	in, op := reduceDepth(d), goOp[v.Op]
	switch v.Op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
		if ints {
			return c.paren("(", bare).expr(v.X, in+1).arith(op, in).divisor(v.Op == token.SLASH || v.Op == token.PERCENT, v.Y, in+1).paren(")", bare)
		}
		return c.w("float64(").floatOperand(v.X, d+1).arith(op, d).floatOperand(v.Y, d+1).w(")")
	case token.LT, token.GT, token.LEQ, token.GEQ:
		return c.infix(v, op, in+1, !ints, bare)
	case token.EQ, token.NEQ:
		return c.equality(v, d, bare)
	case token.AND, token.OR:
		return c.infix(v, op, in+1, false, bare)
	}
	c.errf("unsupported binary operator %v", v.Op)
	return c.w("0")
}

// infix writes v's operands at depth d around op, parenthesised unless
// bare, and as float operands when float.
func (c *fnCtx) infix(v *ast.Binary, op string, d int, float, bare bool) *fnCtx {
	if c.paren("(", bare); float {
		return c.floatOperand(v.X, d).w(" ", op, " ").floatOperand(v.Y, d).paren(")", bare)
	}
	return c.expr(v.X, d).w(" ", op, " ").expr(v.Y, d).paren(")", bare)
}

// floatOperand writes x as an operand of a float operation: an int
// converted.
func (c *fnCtx) floatOperand(x ast.Expr, d int) *fnCtx {
	if isIntType(c.e.prog.TypeOf(x)) {
		return c.w("float64(").expr(x, d).w(")")
	}
	return c.expr(x, d)
}

func (c *fnCtx) equality(v *ast.Binary, d int, bare bool) *fnCtx {
	lt := c.e.prog.TypeOf(v.X)
	rt := c.e.prog.TypeOf(v.Y)
	in, op := reduceDepth(d), goOp[v.Op]
	lNull := types.Equal(lt, types.Basic(types.Null))
	rNull := types.Equal(rt, types.Basic(types.Null))
	switch {
	case lNull && rNull:
		return c.w(strconv.FormatBool(v.Op == token.EQ))
	case rNull:
		return c.paren("(", bare).expr(v.X, in+1).w(" ", op, " nil").paren(")", bare)
	case lNull:
		return c.paren("(", bare).expr(v.Y, in+1).w(" ", op, " nil").paren(")", bare)
	}
	lc := ptrClass(lt)
	rc := ptrClass(rt)
	if lc != nil && rc != nil {
		if !c.e.reprIface(lc) && !c.e.reprIface(rc) && !c.e.exprIface(v.X) && !c.e.exprIface(v.Y) {
			return c.infix(v, op, in+1, false, bare)
		}
		// The helper call is no operator expression: only its negation
		// is parenthesised. Its two arguments print one level down.
		if v.Op == token.NEQ {
			d = in
			c.paren("(", bare).w("!")
		}
		root := types.Pointer{Class: chainRoot(lc)}
		c.e.use(c.b, helperEq, root.Class)
		end := c.w("(").convOpen(v.X, lt, root)
		end = c.expr(v.X, d+1).w(end, ", ").convOpen(v.Y, rt, root)
		if c.expr(v.Y, d+1).w(end, ")"); v.Op == token.NEQ {
			c.paren(")", bare)
		}
		return c
	}
	// Numeric or boolean equality.
	return c.infix(v, op, in+1, !(isIntType(lt) && isIntType(rt) || !types.IsNumeric(lt)), bare)
}

// ---------------------------------------------------------------------
// Builtins

// builtinCall lowers a math builtin to its math-package equivalent
// (the interpreter's callBuiltin mapping); arguments coerce to float64
// like the interpreter's asFloat.
func (c *fnCtx) builtinCall(v *ast.CallExpr, d int) *fnCtx {
	name := goBuiltin[v.Method]
	if name == "" {
		c.errf("unsupported builtin %s", v.Method)
		return c.w("0")
	}
	c.e.useMath = true
	if len(v.Args) > 1 {
		d++
	}
	c.w(name, "(")
	for i, a := range v.Args {
		c.sep(i).floatOperand(a, d)
	}
	return c.w(")")
}

// printStmt lowers print(...): arguments are pre-converted to the
// concrete Go types nativert.Print formats like the interpreter.
func (c *fnCtx) printStmt(v *ast.CallExpr) {
	d := 1
	if len(v.Args) > 1 {
		d = 2
	}
	c.begin("nativert.Print(")
	for i, a := range v.Args {
		c.sep(i).printArg(a, d)
	}
	c.w(")").end()
}

func (c *fnCtx) printArg(a ast.Expr, d int) *fnCtx {
	switch tt := c.e.prog.TypeOf(a).(type) {
	case types.Basic:
		switch tt {
		case types.Int:
			return c.w("int64(").expr(a, d).w(")")
		case types.Double:
			return c.w("float64(").expr(a, d).w(")")
		case types.Null:
			return c.w("nil")
		}
	case types.Pointer:
		if c.e.reprIface(tt.Class) {
			c.e.use(c.b, helperPNI, tt.Class)
		} else {
			c.e.use(c.b, helperPNC, tt.Class)
		}
		return c.w("(").expr(a, d).w(")")
	case types.Object:
		return c.w(`"<`, tt.Class.Name, `>"`) // a class name needs no escapes
	}
	return c.expr(a, d)
}
