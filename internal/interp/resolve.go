package interp

import (
	"sort"
	"sync"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
)

// methodSlots is the slot-resolution result for one method: every
// parameter and local variable is assigned a fixed integer slot
// (parameters first, then locals in declaration order), so activation
// frames are flat []Value arrays instead of name-keyed maps.
type methodSlots struct {
	n       int            // total frame slots
	names   []string       // slot -> variable name (diagnostics)
	types   []types.Type   // slot -> declared type (DeclStmt re-zeroing)
	paramCo []ast.Coercion // per-parameter store coercion
	retCo   ast.Coercion   // return-value coercion
	byName  map[string]int // name -> slot (cold paths only: loop offers)
}

// resolution is the per-program side table the interpreter executes
// against. It is built exactly once per checked program (interp.New
// shares it across instances): the pass assigns frame slots, computes
// static object-slot offsets for every field reference (base-class-first
// layout makes a field's offset identical in every class that inherits
// it), indexes constants, globals, and classes, and precomputes store
// coercions — after which the steady-state execution path performs no
// map lookups.
type resolution struct {
	layout    *layout
	methods   []*methodSlots // indexed by types.Method.ID
	consts    []Value        // SymConst Ident.Slot -> value
	globals   []string       // SymGlobal Ident.Slot -> global name
	classList []*types.Class // NewExpr/CastExpr ClassIdx -> class

	// Closure-compiled bodies (see compile.go), built once with the
	// resolution and shared by every interpreter for the program.
	compiled   []*compiledMethod // indexed by types.Method.ID
	loopBodies map[*ast.ForStmt]loopBody

	// Monitored compiled bodies: the same closure-compile pass run with
	// the monitored load/store kernels (compiler.mon), so speculative
	// regions execute at compiled speed. Built lazily on the first
	// monitored execution — programs that never speculate pay nothing.
	// prog is retained solely for that deferred pass.
	prog          *types.Program
	monOnce       sync.Once
	compiledMon   []*compiledMethod // indexed by types.Method.ID
	loopBodiesMon map[*ast.ForStmt]loopBody
}

// monTables builds (once, racing builders deduped) and returns the
// monitored compiled bodies and loop-body table. The pass reads only
// the immutable AST annotations buildResolution wrote, so it is safe to
// run concurrently with unmonitored execution.
func (r *resolution) monTables() ([]*compiledMethod, map[*ast.ForStmt]loopBody) {
	r.monOnce.Do(func() {
		loops := make(map[*ast.ForStmt]loopBody)
		c := &compiler{prog: r.prog, res: r, mon: true, loops: loops}
		compiled := make([]*compiledMethod, len(r.prog.Methods))
		for _, m := range r.prog.Methods {
			compiled[m.ID] = c.compileMethod(m)
		}
		r.compiledMon, r.loopBodiesMon = compiled, loops
	})
	return r.compiledMon, r.loopBodiesMon
}

// resolveCache maps *types.Program -> *resolveEntry. Entries carry a
// sync.Once so that N goroutines racing to create the first interpreter
// for one program dedupe to a single buildResolution (which both
// computes the side tables and annotates the shared AST), while
// first-builds of *different* programs proceed concurrently — a
// long-running daemon loading many programs must not serialize all
// compilation behind one global lock. The Once also publishes the
// finished resolution with a happens-before edge, so no goroutine can
// observe a torn (partially built) resolution or half-annotated AST.
var resolveCache sync.Map

type resolveEntry struct {
	once sync.Once
	res  *resolution
}

// resolve returns the program's cached resolution, building and
// annotating the AST on first use.
func resolve(prog *types.Program) *resolution {
	e, _ := resolveCache.LoadOrStore(prog, &resolveEntry{})
	ent := e.(*resolveEntry)
	ent.once.Do(func() { ent.res = buildResolution(prog) })
	return ent.res
}

// Warm forces the program's slot resolution and closure compilation to
// run now (they otherwise run lazily on the first interpreter
// creation), so a caching layer can pay the one-time cost at load time
// instead of on the first request.
func Warm(prog *types.Program) { resolve(prog) }

// Release drops the program's cached resolution and compiled bodies,
// letting a long-running process reclaim the memory of programs it has
// evicted. The caller must guarantee no executions of prog are in
// flight and none will start concurrently with the release: a later
// execution rebuilds the caches from scratch (including re-annotating
// the AST), which is only safe once all prior readers are done.
func Release(prog *types.Program) { resolveCache.Delete(prog) }

// coercionFor maps a declared type to the store coercion the
// interpreter applies when assigning into it.
func coercionFor(t types.Type) ast.Coercion {
	b, ok := t.(types.Basic)
	if !ok {
		return ast.CoNone
	}
	switch b {
	case types.Int:
		return ast.CoInt
	case types.Double:
		return ast.CoDouble
	}
	return ast.CoNone
}

func buildResolution(prog *types.Program) *resolution {
	r := &resolution{
		layout:    newLayout(prog),
		methods:   make([]*methodSlots, len(prog.Methods)),
		classList: prog.ClassList,
		prog:      prog,
	}

	// Constant table in sorted-name order (deterministic indices).
	constIdx := make(map[string]int32, len(prog.Consts))
	names := make([]string, 0, len(prog.Consts))
	for name := range prog.Consts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cv := prog.Consts[name]
		constIdx[name] = int32(len(r.consts))
		if cv.IsInt {
			r.consts = append(r.consts, IntValue(cv.I))
		} else {
			r.consts = append(r.consts, FloatValue(cv.F))
		}
	}

	// Global table in declaration order (matches Interp.globals).
	globalIdx := make(map[string]int32, len(prog.GlobalSeq))
	for i, g := range prog.GlobalSeq {
		globalIdx[g.Name] = int32(i)
		r.globals = append(r.globals, g.Name)
	}

	classIdx := make(map[string]int32, len(prog.ClassList))
	for i, cl := range prog.ClassList {
		classIdx[cl.Name] = int32(i)
	}

	for _, m := range prog.Methods {
		r.methods[m.ID] = r.resolveMethod(prog, m, constIdx, globalIdx, classIdx)
	}

	// Lower every resolved body to closures. The compiled forms read
	// only the annotations written above, so this runs after the whole
	// program is resolved.
	r.loopBodies = make(map[*ast.ForStmt]loopBody)
	c := &compiler{prog: prog, res: r, loops: r.loopBodies}
	r.compiled = make([]*compiledMethod, len(prog.Methods))
	for _, m := range prog.Methods {
		r.compiled[m.ID] = c.compileMethod(m)
	}
	return r
}

// resolveMethod assigns frame slots and annotates every name use,
// field reference, and allocation site in the method body.
func (r *resolution) resolveMethod(prog *types.Program, m *types.Method, constIdx, globalIdx, classIdx map[string]int32) *methodSlots {
	ms := &methodSlots{byName: make(map[string]int, len(m.Params)+len(m.Locals))}
	addSlot := func(name string, t types.Type) int {
		slot := ms.n
		ms.byName[name] = slot
		ms.names = append(ms.names, name)
		ms.types = append(ms.types, t)
		ms.n++
		return slot
	}
	for _, p := range m.Params {
		addSlot(p.Name, p.Type)
		ms.paramCo = append(ms.paramCo, coercionFor(p.Type))
	}
	ms.retCo = coercionFor(m.Ret)
	if m.Def == nil {
		return ms
	}

	// Declarations precede uses in the dialect and Inspect walks in
	// source order, so a single pass both assigns and consumes slots.
	// Sequential reuse of a name (two `for (int i ...)` loops) shares
	// the method-level slot, mirroring the checker's Locals map.
	ast.Inspect(m.Def.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			slot, ok := ms.byName[x.Name]
			if !ok {
				slot = addSlot(x.Name, prog.DeclType[x])
			}
			x.Slot = int32(slot)
			x.Coerce = coercionFor(prog.DeclType[x])
		case *ast.Ident:
			switch x.Sym {
			case ast.SymLocal, ast.SymParam:
				if slot, ok := ms.byName[x.Name]; ok {
					x.Slot = int32(slot)
				}
				x.Coerce = coercionFor(prog.TypeOf(x))
			case ast.SymConst:
				x.Slot = constIdx[x.Name]
			case ast.SymGlobal:
				x.Slot = globalIdx[x.Name]
			case ast.SymField:
				// Base-class-first layout: the offset of a field
				// declared in FieldClass is the same in every class
				// inheriting it, so the slot is static.
				if cl, ok := prog.Classes[x.FieldClass]; ok {
					x.Slot = int32(r.layout.slot(cl, x.FieldClass, x.Name))
				}
				x.Coerce = coercionFor(prog.TypeOf(x))
			}
		case *ast.FieldAccess:
			if cl, ok := prog.Classes[x.DeclClass]; ok {
				x.Slot = int32(r.layout.slot(cl, x.DeclClass, x.Name))
			}
			x.Coerce = coercionFor(prog.TypeOf(x))
		case *ast.IndexExpr:
			x.Coerce = coercionFor(prog.TypeOf(x))
		case *ast.NewExpr:
			x.ClassIdx = classIdx[x.ClassName]
		case *ast.CastExpr:
			x.ClassIdx = classIdx[x.ClassName]
		}
		return true
	})
	return ms
}

// coerceKind applies a precomputed store coercion.
func coerceKind(c ast.Coercion, v Value) Value {
	switch c {
	case ast.CoInt:
		if v.kind == KFloat {
			return IntValue(int64(v.Float()))
		}
	case ast.CoDouble:
		if v.kind == KInt {
			return FloatValue(float64(int64(v.num)))
		}
	}
	return v
}
