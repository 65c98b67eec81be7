package codegen

// Native Go backend: lower a Plan into a compilable Go package. Every
// dialect method becomes up to five Go functions — the "customized
// versions" of §5.3 of the paper plus the two the serial context of a
// parallel run needs. What a call site inside P_ or X_ does — which
// version it runs, spawned or not, after releasing the receiver lock or
// not — is the plan's call rule (MethodPlan.Call), read by siteDispatch:
//
//	S_m   serial version: every callee serial, every loop serial.
//	D_m   driver version: runs in a serial context and calls the R_
//	      wrapper at call sites whose callee is a region root
//	      (Plan.RegionRoot: parallel, generates concurrency, returns
//	      no value).
//	R_m   region wrapper: a switch on the tier nativert's entry rule
//	      (Driver.Enter) gives this entry — P_m on the calling
//	      goroutine with the external handle of the run-wide pool
//	      (nativert.Pool: started at the first region of the process,
//	      one for every region after), drained at the region barrier;
//	      the journaled SJ_m under Driver.RunSpeculative; or S_m, as
//	      under -mode serial.
//	P_m   parallel version: acquires the receiver lock when the plan
//	      says so, spawns onto the pool where the call rule spawns, and
//	      compiles planned-parallel counted loops to guided
//	      self-scheduling on the pool (nativert.GSSOn, handed the body's
//	      own scheduler handle w: the goroutine that reaches the loop
//	      claims chunks itself and its helpers are pool tasks). The loop
//	      body is emitted in place, its call sites under the rule's
//	      iteration context.
//	X_m   mutex version: same lock discipline, invoked operations run
//	      inline as X_ calls and every loop is serial. It takes the
//	      handle of the worker running it, w, as does a parallel loop's
//	      claimant (its GSSOn factory's parameter): a replicated
//	      accumulation (ActionReplica) runs the callee's S_ version on
//	      that worker's replica of the global, rep_G.At(w), and the R_
//	      wrapper folds the touched replicas back after the drain.
//
// Speculative extents (statically rejected, optimistically run under
// effect journals) add journaled twins: SJ_ (parallel root, spawns tasks
// with fresh journals, loops under nativert.SpecGSS — the same claim loop
// with a journal per claimant), SJS_ (serial body, every access
// journaled), SJX_ (mutex analogue). They take no locks — isolation comes
// from the journals — and nativert validates at the join barrier, commits
// single-threaded, or discards, and the R_ wrapper reruns S_. A twin is
// a row of the version table below, not a second set of rules: one body
// emitter and one call-site dispatch write both families.
//
// Versions are emitted on demand, starting from main, so the generated
// package contains exactly the functions some execution mode can reach.
// Emission order is deterministic (declaration order, fixed variant
// order, sorted helpers), so generating twice yields byte-identical
// files.
//
// The files are gofmt's fixed point by construction: no formatter runs
// after the emitter, which itself indents through one writer
// (fnCtx.line), pads declaration blocks to their columns (alignRows),
// writes control clauses bare (clause) and spaces operators by the
// depth they print at (the d every expression renderer takes, see
// emitgo_expr.go). That is a property of the tests, not a check in the
// product: emitgo_test.go asserts format.Source(f) == f for every
// shipped program under its plan and for a program built to hit each
// rule, and the serial-equivalence oracle (internal/oracle) asserts it
// on every package it builds, which it also runs through go vet.

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"commute/internal/cond"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
)

// EmitGoOptions configure EmitGoPackage.
type EmitGoOptions struct {
	// Module is the module name of the generated package
	// (default "nativeapp").
	Module string
	// CommutePath is the filesystem path of the commute repository,
	// used for the go.mod replace directive so the generated module
	// resolves commute/nativert and commute/rtkit. Empty omits go.mod.
	CommutePath string
	// AppName labels the generated header comment.
	AppName string
}

// variant identifies one customized version of a method.
type variant int

const (
	varR  variant = iota // region wrapper
	varS                 // serial
	varD                 // driver (serial context)
	varP                 // parallel
	varX                 // mutex
	varJP                // speculative parallel (journaled P_)
	varJS                // speculative serial (journaled S_)
	varJX                // speculative mutex (journaled X_)
)

// versions is the version table, a row per version: its name prefix, the
// execution context its body compiles under (varR's body is
// synthesized), the journaled twin a speculative body calls in its place
// (0: none), and what it takes ahead of the method's own parameters. A
// call site names the proven version its context's rule selects;
// fnCtx.call takes the twin inside a speculative body, and signatures,
// calls, spawns and region wrappers all thread what the row lists.
var versions = [...]struct {
	prefix string
	mode   emitMode
	twin   variant
	thread []string
}{
	varR:  {"R_", mS, 0, nil},
	varS:  {"S_", mS, varJS, nil},
	varD:  {"D_", mD, 0, nil},
	varP:  {"P_", mP, varJP, []string{"w"}},
	varX:  {"X_", mX, varJX, []string{"w"}},
	varJP: {"SJ_", mP, 0, []string{"w", "sr_", "sj_"}},
	varJS: {"SJS_", mS, 0, []string{"sj_"}},
	varJX: {"SJX_", mX, 0, []string{"sr_", "sj_"}},
}

// threadType types the threaded parameters: the scheduler handle of the
// executing goroutine, the speculative region (for fresh journals and the
// failed fast path) and the current task's journal.
var threadType = map[string]string{
	"w": "*rtkit.Worker", "sr_": "*nativert.SpecRegion", "sj_": "*nativert.SpecJournal",
}

// specVariant reports whether v is one of the journaled speculative
// versions (every field/element access routed through a SpecJournal).
func specVariant(v variant) bool { return v >= varJP }

// demand is one demanded method version and where fns holds it.
type demand struct {
	m          *types.Method
	v          variant
	start, end int
}

// goEmitter holds the whole-package emission state.
type goEmitter struct {
	plan *Plan
	prog *types.Program
	opts EmitGoOptions

	hasSub  map[*types.Class]bool
	muRoots map[*types.Class]bool

	// demanded holds, at demandKey, 1 + a demanded version's index in
	// queue, the versions in demand order; 0 is not demanded.
	demanded []int32
	queue    []demand

	// fns holds every emitted version, in demand order, each between its
	// queue entry's start and end; assembleProg copies them out in
	// declaration order.
	fns *bytes.Buffer

	// helpers maps helper name to its source; emitted sorted by name.
	helpers map[string]string

	// driver: the method reaches a call site that enters a region, by
	// types.Method.ID (reachesRegion).
	driver []bool

	// replicas: the globals whose replica tables some emitted code uses.
	replicas map[*types.Global]bool

	// fn is the state of the version emitFn writes, one at a time.
	fn fnCtx

	useMath    bool
	useRtkit   bool
	useStrconv bool

	errs []string
}

func (e *goEmitter) errorf(format string, args ...any) {
	e.errs = append(e.errs, fmt.Sprintf(format, args...))
}

// EmitGoPackage lowers the plan to a native Go package: prog.go (the
// translated program), main.go (the driver), and go.mod (when
// opts.CommutePath is set). File contents are in gofmt's form and
// deterministic for a given plan.
func (p *Plan) EmitGoPackage(opts EmitGoOptions) (map[string][]byte, error) {
	if opts.Module == "" {
		opts.Module = "nativeapp"
	}
	if opts.AppName == "" {
		opts.AppName = "program"
	}
	if strings.ContainsAny(opts.AppName, "\n\r") {
		// The name lands in the generated files' header comments.
		return nil, fmt.Errorf("emitgo: app name %q contains a line break", opts.AppName)
	}
	if p.Prog.Main == nil {
		return nil, fmt.Errorf("emitgo: program has no main function")
	}
	for _, m := range p.Prog.Methods {
		if m.Def == nil {
			return nil, fmt.Errorf("emitgo: %s has no body", m.FullName())
		}
	}
	e := &goEmitter{
		plan:     p,
		prog:     p.Prog,
		opts:     opts,
		hasSub:   make(map[*types.Class]bool),
		muRoots:  make(map[*types.Class]bool),
		demanded: make([]int32, len(p.Prog.Methods)*len(versions)),
		fns:      getScratch(),
		helpers:  make(map[string]string),
		replicas: make(map[*types.Global]bool),
	}
	for _, cl := range e.prog.ClassList {
		if cl.Base != nil {
			e.hasSub[cl.Base] = true
		}
	}
	defer scratch.Put(e.fns)
	e.driver = e.reachesRegion()

	// Demand-driven emission from the entry point.
	entry := varS
	if e.needDriver(e.prog.Main) {
		entry = varD
	}
	e.demand(e.prog.Main, entry)
	// The emitted versions run to 1.2-1.5 times the source they lower.
	e.fns.Grow(e.prog.SourceBytes + e.prog.SourceBytes/2)
	for i := 0; i < len(e.queue); i++ {
		e.queue[i].start = e.fns.Len()
		e.emitFn(e.queue[i].m, e.queue[i].v)
		e.queue[i].end = e.fns.Len()
	}

	progSrc := e.assembleProg(entry)
	if len(e.errs) > 0 {
		sort.Strings(e.errs)
		return nil, fmt.Errorf("emitgo: %s", strings.Join(e.errs, "; "))
	}
	files := map[string][]byte{"prog.go": progSrc, "main.go": e.assembleMain()}
	if opts.CommutePath != "" {
		files["go.mod"] = []byte(fmt.Sprintf(
			"module %s\n\ngo 1.22\n\nrequire commute v0.0.0\n\nreplace commute => %s\n",
			opts.Module, opts.CommutePath))
	}
	return files, nil
}

// guardExpr renders a conditional extent's checked guard as a Go boolean
// expression over the generated global roots: every cond.FieldRef leaf
// becomes a G_<global>(.as_<class>()).F_<field> access. The planner
// checked that each names a field of a global object.
func (e *goEmitter) guardExpr(mp *MethodPlan) string {
	return mp.Guard.Go(func(ref cond.FieldRef) string {
		expr := "G_" + ref.Global
		if e.prog.Globals[ref.Global].Class.Name != ref.Class {
			expr += ".as_" + ref.Class + "()"
		}
		return expr + ".F_" + ref.Field
	})
}

// demand schedules (m, v) for emission if not already demanded.
func (e *goEmitter) demand(m *types.Method, v variant) {
	if k := demandKey(m, v); e.demanded[k] == 0 {
		e.queue = append(e.queue, demand{m: m, v: v})
		e.demanded[k] = int32(len(e.queue))
	}
}

func demandKey(m *types.Method, v variant) int { return m.ID*len(versions) + int(v) }

// reachesRegion computes needDriver for every method: m has a call site
// that enters a region, or calls, transitively, a method that has one.
// That is plain reachability, so it is computed once per emit as the
// closure of the holders over the reversed call graph: no per-call memo,
// and no provisional answer for a call cycle to freeze (on a mutually
// recursive pair a depth-first memo finalizes the inner method while its
// ancestor still reads "computing, false").
func (e *goEmitter) reachesRegion() []bool {
	callers := make([][]*types.Method, len(e.prog.Methods))
	in := make([]bool, len(e.prog.Methods))
	var work []*types.Method
	for _, m := range e.prog.Methods {
		for _, cs := range m.CallSites {
			callers[cs.Callee.ID] = append(callers[cs.Callee.ID], m)
			if !in[m.ID] && e.plan.RegionRoot(cs.Callee) {
				in[m.ID] = true
				work = append(work, m)
			}
		}
	}
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range callers[m.ID] {
			if !in[c.ID] {
				in[c.ID] = true
				work = append(work, c)
			}
		}
	}
	return in
}

// needDriver reports whether m (running in a serial context) can reach
// a call site that opens a parallel region, so its serial-context
// version must be the D_ driver rather than plain S_.
func (e *goEmitter) needDriver(m *types.Method) bool { return e.driver[m.ID] }

// chainRoot returns the topmost base class of c's inheritance chain.
func chainRoot(c *types.Class) *types.Class {
	for c.Base != nil {
		c = c.Base
	}
	return c
}

// ---------------------------------------------------------------------
// Types and names

func basicGo(b types.Basic) string {
	switch b {
	case types.Int:
		return "int64"
	case types.Double:
		return "float64"
	case types.Bool:
		return "bool"
	case types.String:
		return "string"
	}
	return "any"
}

// appendType appends a dialect type as a Go type. Parameter positions
// use slices for arrays (dialect arrays pass by reference).
func (e *goEmitter) appendType(dst []byte, t types.Type, param bool) []byte {
	switch tt := t.(type) {
	case types.Basic:
		if tt == types.Void {
			return dst
		}
		return append(dst, basicGo(tt)...)
	case types.Pointer:
		if e.hasSub[tt.Class] {
			return append(append(dst, "I_"...), tt.Class.Name...)
		}
		return append(append(dst, "*T_"...), tt.Class.Name...)
	case types.PrimPointer:
		return append(append(dst, "[]"...), basicGo(tt.Elem)...)
	case types.Array:
		if param || tt.Len < 0 {
			return e.appendType(append(dst, "[]"...), tt.Elem, false)
		}
		dst = strconv.AppendInt(append(dst, '['), int64(tt.Len), 10)
		return e.appendType(append(dst, ']'), tt.Elem, false)
	case types.Object:
		return append(append(dst, "T_"...), tt.Class.Name...)
	}
	return append(dst, "any"...)
}

// goType is a type as a cell alignRows pads.
func (e *goEmitter) goType(t types.Type, param bool) string {
	var buf [64]byte
	return string(e.appendType(buf[:0], t, param))
}

// write writes parts to b.
func write(b *bytes.Buffer, parts ...string) {
	for _, s := range parts {
		b.WriteString(s)
	}
}

// ptrClass returns the class of a pointer- or object-typed expression
// type, or nil.
func ptrClass(t types.Type) *types.Class {
	switch tt := t.(type) {
	case types.Pointer:
		return tt.Class
	case types.Object:
		return tt.Class
	}
	return nil
}

// reprIface reports whether class-c pointers are represented as the
// I_c interface (classes with subclasses) rather than *T_c.
func (e *goEmitter) reprIface(c *types.Class) bool { return e.hasSub[c] }

// exprIface reports whether the Go expression emitted for x has
// interface type. This differs from reprIface of the static class only
// for expressions whose emission produces a concrete pointer (new,
// this, globals) or follows a cast.
func (e *goEmitter) exprIface(x ast.Expr) bool {
	switch v := x.(type) {
	case *ast.NewExpr, *ast.ThisExpr:
		return false
	case *ast.Ident:
		if v.Sym == ast.SymGlobal {
			return false
		}
	case *ast.CastExpr:
		tc := e.prog.Classes[v.ClassName]
		sc := ptrClass(e.prog.TypeOf(v.X))
		if tc == nil || sc == nil {
			return false
		}
		if sc == tc {
			return e.exprIface(v.X)
		}
		if sc.InheritsFrom(tc) { // upcast: emission preserves the operand
			if e.exprIface(v.X) {
				return true
			}
			return e.reprIface(tc)
		}
		return e.reprIface(tc) // downcast helper returns the target repr
	}
	c := ptrClass(e.prog.TypeOf(x))
	return c != nil && e.reprIface(c)
}

// ---------------------------------------------------------------------
// Conversion helpers (demanded on use)

// helper is a function (or variable) emitted code calls where Go has no
// operator for what the dialect does, written once per package on first
// use: its name is prefix and the names of the classes it is for, joined
// by underscores, and src is its source, a format over that name and
// those class names.
type helper struct{ prefix, src string }

var (
	// toI_src_dst: *T_src to I_dst, nil kept nil (a Go conversion makes
	// a nil *T_src a non-nil interface value, unequal to NULL).
	helperToI = helper{"toI_", "func %s(p *T_%s) I_%s {\n\tif p == nil {\n\t\treturn nil\n\t}\n\treturn p\n}\n"}
	// asI_c: the concrete pointer a bound parameter is read through
	// (bindings); a NULL parameter binds to nil instead of faulting.
	helperAsI = helper{"asI_", "func %s(v I_%[2]s) *T_%[2]s {\n\tif v == nil {\n\t\treturn nil\n\t}\n\treturn v.as_%[2]s()\n}\n"}
	// dc_src_dst: the dynamic cast of an I_src to dst's pointer, nil when
	// it fails and on nil, like the interpreter's castValue.
	helperDC  = helper{"dc_", "func %s(v I_%s) *T_%[3]s {\n\tc, ok := v.(*T_%[3]s)\n\tif !ok {\n\t\treturn nil\n\t}\n\treturn c\n}\n"}
	helperDCI = helper{"dc_", "func %s(v I_%s) I_%[3]s {\n\tc, ok := v.(I_%[3]s)\n\tif !ok {\n\t\treturn nil\n\t}\n\treturn c\n}\n"}
	// eqp_root: pointer equality in a chain of interfaces, by the shared
	// root embedding's identity, nil on either side included.
	helperEq = helper{"eqp_", "func %s(a, b I_%[2]s) bool {\n\tif a == nil || b == nil {\n\t\treturn a == nil && b == nil\n\t}\n\treturn a.as_%[2]s() == b.as_%[2]s()\n}\n"}
	// pnC_c, pnI_c: what print prints for a pointer of static class c:
	// "<class>", the dynamic class for an interface, or NULL.
	helperPNC = helper{"pnC_", "func %s(v *T_%[2]s) any {\n\tif v == nil {\n\t\treturn nil\n\t}\n\treturn \"<%[2]s>\"\n}\n"}
	helperPNI = helper{"pnI_", "func %s(v I_%s) any {\n\tif v == nil {\n\t\treturn nil\n\t}\n\treturn \"<\" + v.cls_() + \">\"\n}\n"}
	// dmpC_c, dmpI_c: the nil-checked dump of a pointer field.
	helperDmpC = helper{"dmpC_", "func %s(d *nativert.Dumper, path string, v *T_%s) {\n\tif v == nil {\n\t\td.Null(path)\n\t\treturn\n\t}\n\tv.dmp_(d, path)\n}\n"}
	helperDmpI = helper{"dmpI_", "func %s(d *nativert.Dumper, path string, v I_%s) {\n\tif v == nil {\n\t\td.Null(path)\n\t\treturn\n\t}\n\tv.dmp_(d, path)\n}\n"}
	// zero_: a divisor Go cannot see is zero (fnCtx.divisor).
	helperZero = helper{"zero_", "// zero_ is a zero divisor Go cannot see: the division fails at run\n// time, as the interpreter's does.\nvar %s int64\n"}
)

// use writes the name of helper h for the classes cls, rendering its
// source on first use.
func (e *goEmitter) use(b *bytes.Buffer, h helper, cls ...*types.Class) {
	var buf [64]byte
	name := append(buf[:0], h.prefix...)
	for i, c := range cls {
		if i > 0 {
			name = append(name, '_')
		}
		name = append(name, c.Name...)
	}
	if b.Write(name); e.helpers[string(name)] == "" {
		args := []any{string(name)}
		for _, c := range cls {
			args = append(args, c.Name)
		}
		e.helpers[string(name)] = fmt.Sprintf(h.src, args...)
	}
}

// helperDmp writes the name of the dump helper for a pointer field of
// static class c.
func (e *goEmitter) helperDmp(b *bytes.Buffer, c *types.Class) {
	if e.reprIface(c) {
		e.use(b, helperDmpI, c)
	} else {
		e.use(b, helperDmpC, c)
	}
}
