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
	"strconv"
	"strings"

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
	ckEffectX                 // mutex version runs inline; value discarded
)

// callPlan is the lowering decision for one call site in the current
// mode.
type callPlan struct {
	kind    callKind
	callee  *types.Method
	v       variant // the version called
	release bool    // release the receiver lock, if still held, before the call
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
	case sc.Run == VersionMutex:
		kind = ckEffectX
	}
	cp := c.call(kind, callee, runVariant[sc.Run])
	// A speculative body holds no lock.
	cp.release = sc.Release && c.locked
	return cp
}

// recvChain renders the receiver expression of a call to callee,
// inserting the as_ accessor that narrows to the callee's declaring
// class (also resolving interface receivers to concrete pointers).
func (c *fnCtx) recvChain(x *ast.CallExpr, callee *types.Method, d int) string {
	if callee.Class == nil {
		return ""
	}
	if x.Recv == nil {
		// Implicit this->m(...).
		if c.m.Class == callee.Class {
			return "o"
		}
		return "o.as_" + callee.Class.Name + "()"
	}
	code := c.expr(x.Recv, d)
	if c.recvPlain(x, callee) {
		return code
	}
	return code + ".as_" + callee.Class.Name + "()"
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

// renderCall assembles a lowered call expression. A call with more than
// one argument prints its receiver and its arguments one level deeper.
func (c *fnCtx) renderCall(x *ast.CallExpr, cp callPlan, d int) string {
	args := threadArgs(cp.v, "w", "sj_")
	n := min(len(x.Args), len(cp.callee.Params))
	if len(args)+n > 1 {
		d++
	}
	for i, a := range x.Args[:n] {
		args = append(args, c.exprAs(a, cp.callee.Params[i].Type, d))
	}
	call := versions[cp.v].prefix + cp.callee.Name + "(" + strings.Join(args, ", ") + ")"
	if recv := c.recvChain(x, cp.callee, d); recv != "" {
		return recv + "." + call
	}
	return call
}

// exprStmt lowers an expression statement.
func (c *fnCtx) exprStmt(x ast.Expr) {
	switch v := x.(type) {
	case *ast.Assign:
		c.assign(v)
		return
	case *ast.CallExpr:
		if v.Builtin {
			if v.Method == "print" {
				c.printStmt(v)
			} else {
				c.line("_ = %s", c.builtinCall(v, 1))
			}
			return
		}
		c.effectCall(v, c.siteDispatch(v))
		return
	}
	c.line("_ = %s", c.expr(x, 1))
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
	c.line("%s", c.renderCall(x, cp, 1))
}

// spawn lowers a spawned call: evaluate receiver and arguments now (the
// interpreter evaluates them in the caller before enqueuing the task),
// release the receiver lock when the rule says so, and push a task
// running the version it named.
func (c *fnCtx) spawn(x *ast.CallExpr, cp callPlan) {
	callee := cp.callee
	c.line("{")
	c.indent++
	var taskArgs []string
	recv := ""
	if callee.Class != nil {
		rv := c.tmpName()
		chain := c.recvChain(x, callee, 1)
		if c.byValue(x.Recv) && c.recvPlain(x, callee) {
			chain = "&" + chain // the task takes the nested object's address
		}
		// Narrow interface receivers to the concrete declaring class.
		c.line("var %s *T_%s = %s", rv, callee.Class.Name, chain)
		recv = rv + "."
	}
	for i, a := range x.Args {
		if i >= len(callee.Params) {
			break
		}
		av := c.tmpName()
		pt := callee.Params[i].Type
		c.line("var %s %s = %s", av, c.e.goType(pt, true), c.exprAs(a, pt, 1))
		taskArgs = append(taskArgs, av)
	}
	// A speculative task gets a fresh journal, and captures panics so a
	// faulting task aborts the region instead of killing the pool
	// goroutine.
	jv := ""
	if c.spec {
		jv = c.tmpName()
		c.line("%s := sr_.NewJournal()", jv)
	}
	if cp.release {
		c.releaseLock()
	}
	c.e.useRtkit = true
	args := append(threadArgs(cp.v, "cw_", jv), taskArgs...)
	c.line("w.Pool().Spawn(w, %q, func(cw_ *rtkit.Worker) {", callee.FullName())
	if c.spec {
		c.line("\tdefer sr_.CapturePanic()")
	}
	c.line("\t%s%s%s(%s)", recv, versions[cp.v].prefix, callee.Name, strings.Join(args, ", "))
	c.line("})")
	c.indent--
	c.line("}")
}

func (c *fnCtx) tmpName() string {
	c.tmp++
	return "t" + strconv.Itoa(c.tmp) + "_"
}

// ---------------------------------------------------------------------
// Assignment

func (c *fnCtx) assign(a *ast.Assign) {
	lt := c.e.prog.TypeOf(a.LHS)
	if c.spec {
		if addr, desc, shared := c.specLHS(a.LHS); shared {
			c.specAssign(a, addr, desc, lt)
			return
		}
	}
	lhs := c.expr(a.LHS, 1)
	if a.Op == token.ASSIGN {
		if call, ok := a.RHS.(*ast.CallExpr); ok && !call.Builtin {
			cp := c.siteDispatch(call)
			if cp.kind != ckValue {
				// The discarded-value call kinds store a zero value
				// (the interpreter stores the spawned call's Value{},
				// which reads back as the type's zero).
				c.effectCall(call, cp)
				c.line("%s = %s", lhs, c.e.zeroVal(lt))
				return
			}
		}
		c.line("%s = %s", lhs, c.exprAs(a.RHS, lt, 1))
		return
	}
	// Compound assignment: int op int stays int; any double promotes
	// the arithmetic to double, then the store coerces back to the
	// target type (truncating for int targets).
	op := goOp[a.Op]
	if op == "" {
		c.errf("unsupported compound assignment %v", a.Op)
		return
	}
	rt := c.e.prog.TypeOf(a.RHS)
	if isIntType(lt) && isIntType(rt) {
		c.line("%s %s= %s", lhs, op, c.expr(a.RHS, 1))
		return
	}
	// The target is read as an operand of the fenced operation, one
	// level below the statement.
	res := "float64(" + c.floatOperand(a.LHS, lt, 2) + " " + op + " " + c.floatOperand(a.RHS, rt, 2) + ")"
	if isIntType(lt) {
		res = "int64(" + res + ")"
	}
	c.line("%s = %s", lhs, res)
}

// specLHS resolves an assignment target to its journal location — the
// address expression and the declared-effect key — when the target is
// shared state. Locals and parameters are frame-private and keep the
// plain lowering (shared reads inside their RHS still journal through
// expr). Wherever specAssign puts the address, its parentheses bring
// the location back to depth 1.
func (c *fnCtx) specLHS(x ast.Expr) (addr, desc string, shared bool) {
	switch v := x.(type) {
	case *ast.Ident:
		if v.Sym != ast.SymField {
			return "", "", false
		}
		sel := "o.as_" + v.FieldClass + "().F_" + v.Name
		if c.m.Class != nil && c.m.Class.Name == v.FieldClass {
			sel = "o.F_" + v.Name
		}
		return "&(" + sel + ")", v.FieldClass + "." + v.Name, true
	case *ast.FieldAccess:
		// Rendering the base journals the chain's own loads.
		return "&(" + c.fieldSel(v, 1) + ")", v.DeclClass + "." + v.Name, true
	case *ast.IndexExpr:
		return "&(" + c.expr(v.X, 1) + "[" + c.expr(v.Index, 2) + "])", "", true
	}
	return "", "", false
}

// specAssign lowers an assignment to shared state inside a speculative
// task: the write is buffered in the journal and never reaches the
// live heap before commit. The right-hand side is evaluated into a
// temporary first, matching the interpreter's evaluation order.
func (c *fnCtx) specAssign(a *ast.Assign, addr, desc string, lt types.Type) {
	if a.Op == token.ASSIGN {
		if call, ok := a.RHS.(*ast.CallExpr); ok && !call.Builtin {
			if cp := c.siteDispatch(call); cp.kind != ckValue {
				c.effectCall(call, cp)
				c.line("nativert.SpecStore(sj_, %s, %s, %q)", addr, c.e.zeroVal(lt), desc)
				return
			}
		}
		rv := c.tmpName()
		c.line("var %s %s = %s", rv, c.e.goType(lt, false), c.exprAs(a.RHS, lt, 1))
		c.line("nativert.SpecStore(sj_, %s, %s, %q)", addr, rv, desc)
		return
	}
	op := goOp[a.Op]
	if op == "" {
		c.errf("unsupported compound assignment %v", a.Op)
		return
	}
	rt := c.e.prog.TypeOf(a.RHS)
	rv := c.tmpName()
	c.line("var %s %s = %s", rv, c.e.goType(rt, false), c.expr(a.RHS, 1))
	pv := c.tmpName()
	c.line("%s := %s", pv, addr)
	ov := c.tmpName()
	c.line("%s := nativert.SpecLoad(sj_, %s, %q)", ov, pv, desc)
	lInt := isIntType(lt)
	rInt := isIntType(rt)
	l, r := ov, rv
	if lInt && !rInt {
		l = "float64(" + l + ")"
	}
	if rInt && !lInt {
		r = "float64(" + r + ")"
	}
	res := l + op + r // an argument of SpecStore: depth 2
	if !lInt || !rInt {
		res = "float64(" + res + ")"
		if lInt {
			res = "int64(" + res + ")"
		}
	}
	c.line("nativert.SpecStore(sj_, %s, %s, %q)", pv, res, desc)
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

// conv converts an emitted expression from its checked type to the
// target type: the dialect's implicit numeric coercions, array decay
// to slices at call boundaries, and nil-safe concrete-to-interface
// pointer widening.
func (c *fnCtx) conv(code string, src ast.Expr, from, to types.Type) string {
	if from == nil || to == nil {
		return code
	}
	switch tt := to.(type) {
	case types.Basic:
		switch tt {
		case types.Int:
			if isDoubleType(from) {
				return "int64(" + code + ")"
			}
		case types.Double:
			if isIntType(from) {
				return "float64(" + code + ")"
			}
		}
		return code
	case types.Pointer:
		if b, ok := from.(types.Basic); ok && b == types.Null {
			return code // untyped nil assigns to both reprs
		}
		fc := ptrClass(from)
		if fc == nil {
			return code
		}
		if !c.e.reprIface(tt.Class) {
			return code
		}
		if c.e.exprIface(src) {
			return code // interface-to-interface widening is implicit
		}
		if _, ok := src.(*ast.NewExpr); ok {
			return code // never nil; implicit conversion is safe
		}
		return c.e.helperToI(fc, tt.Class) + "(" + code + ")"
	case types.PrimPointer:
		if _, ok := from.(types.Array); ok {
			return c.decay(code, src)
		}
		return code
	case types.Array:
		// Parameter position: dialect arrays pass by reference.
		if fa, ok := from.(types.Array); ok && fa.Len >= 0 {
			return c.decay(code, src)
		}
		return code
	}
	return code
}

// exprAs renders x converted to the type its context expects. conv
// slices an array operand, and a slice expression prints its operand at
// depth 1 wherever it stands.
func (c *fnCtx) exprAs(x ast.Expr, to types.Type, d int) string {
	from := c.e.prog.TypeOf(x)
	if _, ok := from.(types.Array); ok {
		d = 1
	}
	return c.conv(c.expr(x, d), x, from, to)
}

// decay turns a Go fixed-array expression into a slice; parameters are
// already slices.
func (c *fnCtx) decay(code string, src ast.Expr) string {
	if id, ok := src.(*ast.Ident); ok && id.Sym == ast.SymParam {
		return code
	}
	return code + "[:]"
}

// ---------------------------------------------------------------------
// Expressions

// reduceDepth is what a pair of parentheses does to the depth of the
// expression inside it.
func reduceDepth(d int) int { return max(d-1, 1) }

// clause renders the condition of an if or for statement: gofmt prints
// it at depth 1 and without the parentheses expr puts around an
// operator used as an operand.
func (c *fnCtx) clause(x ast.Expr) string {
	switch v := x.(type) {
	case *ast.Unary:
		return c.unary(v, 1)
	case *ast.Binary:
		return c.binary(v, 1, true)
	}
	return c.expr(x, 1)
}

func (c *fnCtx) expr(x ast.Expr, d int) string {
	switch v := x.(type) {
	case *ast.IntLit:
		return strconv.FormatInt(v.Value, 10)
	case *ast.FloatLit:
		return formatFloatLit(v.Value)
	case *ast.BoolLit:
		if v.Value {
			return "true"
		}
		return "false"
	case *ast.NullLit:
		return "nil"
	case *ast.StringLit:
		return strconv.Quote(v.Value)
	case *ast.ThisExpr:
		return "o"
	case *ast.Ident:
		return c.ident(v)
	case *ast.FieldAccess:
		if c.spec {
			// The depth carries over: a SpecLoad's argument list adds a
			// level and the parentheses of its address take it back. (An
			// array, under a SpecTouch, only ever stands at depth 1:
			// indexed here, or sliced by exprAs.)
			return c.specLoad("&("+c.fieldSel(v, d)+")", v.DeclClass+"."+v.Name, c.e.prog.TypeOf(x))
		}
		return c.fieldSel(v, d)
	case *ast.IndexExpr:
		// An indexed operand prints at depth 1, its index one level down
		// — at the same depths inside a SpecLoad's address.
		el := c.expr(v.X, 1) + "[" + c.expr(v.Index, d+1) + "]"
		if c.spec {
			// Element locations carry no descriptor: the access reached
			// the array through a monitored field load, whose key
			// vouches for the whole aggregate.
			return c.specLoad("&("+el+")", "", c.e.prog.TypeOf(x))
		}
		return el
	case *ast.NewExpr:
		return "&T_" + v.ClassName + "{}"
	case *ast.CastExpr:
		return c.cast(v, d)
	case *ast.Unary:
		return "(" + c.unary(v, reduceDepth(d)) + ")"
	case *ast.Binary:
		return c.binary(v, d, false)
	case *ast.CallExpr:
		if v.Builtin {
			if v.Method == "print" {
				c.errf("print used as a value")
				return "0"
			}
			return c.builtinCall(v, d)
		}
		cp := c.siteDispatch(v)
		if cp.kind != ckValue {
			c.errf("call with discarded result used as a value (site %d)", v.Site)
			return c.e.zeroVal(c.e.prog.TypeOf(v))
		}
		return c.renderCall(v, cp, d)
	case *ast.Assign:
		c.errf("assignment used as a value")
		return "0"
	}
	c.errf("unsupported expression %T", x)
	return "0"
}

// fieldSel renders the selector of a field access, through the as_
// accessor of the field's declaring class unless the base expression
// already is a concrete pointer to that class.
func (c *fnCtx) fieldSel(v *ast.FieldAccess, d int) string {
	base := c.expr(v.X, d)
	if bcl := ptrClass(c.e.prog.TypeOf(v.X)); bcl != nil && bcl.Name == v.DeclClass && !c.e.exprIface(v.X) {
		return base + ".F_" + v.Name
	}
	return base + ".as_" + v.DeclClass + "().F_" + v.Name
}

// unary renders a prefix operator without the parentheses it carries
// as an operand.
func (c *fnCtx) unary(v *ast.Unary, d int) string {
	switch v.Op {
	case token.MINUS:
		return "-" + c.expr(v.X, d)
	case token.NOT:
		return "!" + c.expr(v.X, d)
	}
	c.errf("unsupported unary operator %v", v.Op)
	return "0"
}

func (c *fnCtx) ident(v *ast.Ident) string {
	switch v.Sym {
	case ast.SymLocal, ast.SymParam:
		return "v_" + v.Name
	case ast.SymConst:
		return "C_" + v.Name
	case ast.SymGlobal:
		return "G_" + v.Name
	case ast.SymField:
		sel := "o.as_" + v.FieldClass + "().F_" + v.Name
		if c.m.Class != nil && c.m.Class.Name == v.FieldClass {
			sel = "o.F_" + v.Name
		}
		if c.spec {
			return c.specLoad("&("+sel+")", v.FieldClass+"."+v.Name, c.e.prog.TypeOf(v))
		}
		return sel
	}
	c.errf("unresolved identifier %s", v.Name)
	return "0"
}

// specLoad routes a shared-state load through the task's journal.
// Aggregate-typed locations (embedded arrays and nested objects) must
// stay addressable so the caller can index, select or invoke through
// them — SpecTouch logs the read and returns the pointer, and the inner
// accesses journal their own locations. Everything else returns the
// journal's view of the value: a buffered write if the task made one,
// the frozen heap value otherwise.
func (c *fnCtx) specLoad(addr, desc string, t types.Type) string {
	switch t.(type) {
	case types.Array, types.Object:
		return "(*nativert.SpecTouch(sj_, " + addr + ", " + strconv.Quote(desc) + "))"
	}
	return "nativert.SpecLoad(sj_, " + addr + ", " + strconv.Quote(desc) + ")"
}

// formatFloatLit renders a float literal so Go reads back the same
// float64 bit pattern, keeping a decimal point or exponent so the
// literal stays floating-typed.
func formatFloatLit(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

func (c *fnCtx) cast(v *ast.CastExpr, d int) string {
	tc := c.e.prog.Classes[v.ClassName]
	sc := ptrClass(c.e.prog.TypeOf(v.X))
	code := c.expr(v.X, d)
	if tc == nil || sc == nil {
		c.errf("cast with unresolved classes")
		return code
	}
	if sc == tc {
		return code
	}
	if sc.InheritsFrom(tc) {
		// Upcast: same object, possibly widened to the base interface.
		return c.conv(code, v.X, types.Pointer{Class: sc}, types.Pointer{Class: tc})
	}
	if tc.InheritsFrom(sc) {
		// Downcast: runtime-checked, nil on failure (and on nil input),
		// exactly like the interpreter's castValue.
		return c.e.helperDC(sc, tc) + "(" + code + ")"
	}
	c.errf("cast between unrelated classes %s and %s", sc.Name, tc.Name)
	return code
}

// goOp spells the dialect's arithmetic, compound-assignment and ordering
// operators in Go.
var goOp = map[token.Kind]string{
	token.PLUS: "+", token.MINUS: "-", token.STAR: "*", token.SLASH: "/", token.PERCENT: "%",
	token.PLUSEQ: "+", token.MINUSEQ: "-", token.STAREQ: "*", token.SLASHEQ: "/",
	token.LT: "<", token.GT: ">", token.LEQ: "<=", token.GEQ: ">=",
}

// goBuiltin names the math-package function behind each math builtin.
var goBuiltin = map[string]string{
	"sqrt": "math.Sqrt", "fabs": "math.Abs", "exp": "math.Exp",
	"log": "math.Log", "floor": "math.Floor", "sin": "math.Sin",
	"cos": "math.Cos", "pow": "math.Pow",
}

// arith joins two operands with an arithmetic operator as gofmt prints
// one at depth d: blanks at depth 1 only. (Every operand the emitter
// writes is a primary expression, so go/printer's other spacing rules —
// mixed precedence, clashing unary operands — never apply.)
func arith(l, op, r string, d int) string {
	if d > 1 {
		return l + op + r
	}
	return l + " " + op + " " + r
}

// paren wraps an operator expression for use as an operand; a control
// clause takes it bare.
func paren(code string, bare bool) string {
	if bare {
		return code
	}
	return "(" + code + ")"
}

// binary lowers a binary operator. Every float operation is wrapped in
// an explicit float64 conversion: the Go spec permits fusing `a*b + c`
// into an FMA unless the result is "explicitly rounded by a
// conversion", and the interpreter's arithmetic rounds after every
// operation — the conversions make native floats bit-identical. The
// conversion keeps the depth; every other form is parenthesised (bare
// only as a control clause, at depth 1), which takes a level off, and
// operands print one level below their operator.
func (c *fnCtx) binary(v *ast.Binary, d int, bare bool) string {
	lt := c.e.prog.TypeOf(v.X)
	rt := c.e.prog.TypeOf(v.Y)
	in := reduceDepth(d)
	switch v.Op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH, token.PERCENT:
		if isIntType(lt) && isIntType(rt) {
			return paren(arith(c.expr(v.X, in+1), goOp[v.Op], c.expr(v.Y, in+1), in), bare)
		}
		return "float64(" + arith(c.floatOperand(v.X, lt, d+1), goOp[v.Op], c.floatOperand(v.Y, rt, d+1), d) + ")"
	case token.LT, token.GT, token.LEQ, token.GEQ:
		if isIntType(lt) && isIntType(rt) {
			return paren(c.expr(v.X, in+1)+" "+goOp[v.Op]+" "+c.expr(v.Y, in+1), bare)
		}
		return paren(c.floatOperand(v.X, lt, in+1)+" "+goOp[v.Op]+" "+c.floatOperand(v.Y, rt, in+1), bare)
	case token.EQ, token.NEQ:
		return c.equality(v, d, bare)
	case token.AND:
		return paren(c.expr(v.X, in+1)+" && "+c.expr(v.Y, in+1), bare)
	case token.OR:
		return paren(c.expr(v.X, in+1)+" || "+c.expr(v.Y, in+1), bare)
	}
	c.errf("unsupported binary operator %v", v.Op)
	return "0"
}

func (c *fnCtx) floatOperand(x ast.Expr, t types.Type, d int) string {
	code := c.expr(x, d)
	if isIntType(t) {
		return "float64(" + code + ")"
	}
	return code
}

func (c *fnCtx) equality(v *ast.Binary, d int, bare bool) string {
	lt := c.e.prog.TypeOf(v.X)
	rt := c.e.prog.TypeOf(v.Y)
	in := reduceDepth(d)
	op := " == "
	if v.Op == token.NEQ {
		op = " != "
	}
	lNull := types.Equal(lt, types.Basic(types.Null))
	rNull := types.Equal(rt, types.Basic(types.Null))
	switch {
	case lNull && rNull:
		if v.Op == token.NEQ {
			return "false"
		}
		return "true"
	case rNull:
		return paren(c.expr(v.X, in+1)+op+"nil", bare)
	case lNull:
		return paren(c.expr(v.Y, in+1)+op+"nil", bare)
	}
	lc := ptrClass(lt)
	rc := ptrClass(rt)
	if lc != nil && rc != nil {
		if !c.e.reprIface(lc) && !c.e.reprIface(rc) && !c.e.exprIface(v.X) && !c.e.exprIface(v.Y) {
			return paren(c.expr(v.X, in+1)+op+c.expr(v.Y, in+1), bare)
		}
		// The helper call is no operator expression: only its negation
		// is parenthesised. Its two arguments print one level down.
		if v.Op == token.NEQ {
			d = in
		}
		root := chainRoot(lc)
		call := c.e.helperEq(root) + "(" +
			c.conv(c.expr(v.X, d+1), v.X, lt, types.Pointer{Class: root}) + ", " +
			c.conv(c.expr(v.Y, d+1), v.Y, rt, types.Pointer{Class: root}) + ")"
		if v.Op == token.NEQ {
			return paren("!"+call, bare)
		}
		return call
	}
	// Numeric or boolean equality.
	if isIntType(lt) && isIntType(rt) || !types.IsNumeric(lt) {
		return paren(c.expr(v.X, in+1)+op+c.expr(v.Y, in+1), bare)
	}
	return paren(c.floatOperand(v.X, lt, in+1)+op+c.floatOperand(v.Y, rt, in+1), bare)
}

// ---------------------------------------------------------------------
// Builtins

// builtinCall lowers a math builtin to its math-package equivalent
// (the interpreter's callBuiltin mapping); arguments coerce to float64
// like the interpreter's asFloat.
func (c *fnCtx) builtinCall(v *ast.CallExpr, d int) string {
	name := goBuiltin[v.Method]
	if name == "" {
		c.errf("unsupported builtin %s", v.Method)
		return "0"
	}
	c.e.useMath = true
	if len(v.Args) > 1 {
		d++
	}
	var args []string
	for _, a := range v.Args {
		args = append(args, c.floatOperand(a, c.e.prog.TypeOf(a), d))
	}
	return name + "(" + strings.Join(args, ", ") + ")"
}

// printStmt lowers print(...): arguments are pre-converted to the
// concrete Go types nativert.Print formats like the interpreter.
func (c *fnCtx) printStmt(v *ast.CallExpr) {
	d := 1
	if len(v.Args) > 1 {
		d = 2
	}
	var args []string
	for _, a := range v.Args {
		args = append(args, c.printArg(a, d))
	}
	c.line("nativert.Print(%s)", strings.Join(args, ", "))
}

func (c *fnCtx) printArg(a ast.Expr, d int) string {
	t := c.e.prog.TypeOf(a)
	switch tt := t.(type) {
	case types.Basic:
		switch tt {
		case types.Int:
			return "int64(" + c.expr(a, d) + ")"
		case types.Double:
			return "float64(" + c.expr(a, d) + ")"
		case types.Null:
			return "nil"
		}
		return c.expr(a, d)
	case types.Pointer:
		return c.e.helperPN(tt.Class) + "(" + c.expr(a, d) + ")"
	case types.Object:
		return strconv.Quote("<" + tt.Class.Name + ">")
	}
	return c.expr(a, d)
}
