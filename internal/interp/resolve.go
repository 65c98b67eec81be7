package interp

import (
	"sync"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
)

// methodSlots is what the interpreter adds to one method's checked frame
// (types.Method.Frame, whose slots the checker gave every name use): the
// store coercions of its parameters and return value, and the room its
// frame-owned local arrays take.
type methodSlots struct {
	n       int            // total frame slots, len(Method.Frame)
	paramCo []ast.Coercion // per-parameter store coercion
	retCo   ast.Coercion   // return-value coercion

	// arena and arrays are what the method's frame-owned local arrays
	// take of a frame: arena elements and array headers. The compiler
	// places each such declaration (ownedDecl), and an activation's frame
	// is fitted to them (Frame.fitArrays).
	arena, arrays int
}

// ownedArray is one frame-owned local array: its n elements start at
// off in the frame's arena, and idx is its header in the frame's arrays.
type ownedArray struct{ off, n, idx int }

// resolution is the per-program side table the interpreter executes
// against, beside the slots the checker assigned: the constant values,
// the object templates, each method's coercions and array room, and the
// closure-compiled bodies. It is built once per checked program
// (interp.New shares it across instances) and writes nothing into the
// program or its AST.
type resolution struct {
	tmpl    map[*types.Class]*objTemplate
	methods []*methodSlots // indexed by types.Method.ID
	consts  []Value        // SymConst Ident.Slot -> value

	// Closure-compiled bodies (see compile.go), built once with the
	// resolution and shared by every interpreter for the program.
	compiled   []*compiledMethod // indexed by types.Method.ID
	loopBodies map[*ast.ForStmt]loopBody
}

// resolveCache maps *types.Program -> *resolveEntry. Entries carry a
// sync.Once so that N goroutines racing to create the first interpreter
// for one program dedupe to a single buildResolution, while first-builds
// of *different* programs proceed concurrently — a long-running daemon
// loading many programs must not serialize all compilation behind one
// global lock. The Once also publishes the finished resolution with a
// happens-before edge, so no goroutine can observe a torn (partially
// built) resolution.
var resolveCache sync.Map

type resolveEntry struct {
	once sync.Once
	res  *resolution
}

// resolve returns the program's cached resolution, building it on first
// use. Only the first call for a program allocates its entry.
func resolve(prog *types.Program) *resolution {
	e, ok := resolveCache.Load(prog)
	if !ok {
		e, _ = resolveCache.LoadOrStore(prog, &resolveEntry{})
	}
	ent := e.(*resolveEntry)
	ent.once.Do(func() { ent.res = buildResolution(prog) })
	return ent.res
}

// Warm forces the program's resolution and closure compilation to run
// now (they otherwise run lazily on the first interpreter creation), so
// a caller can pay the one-time cost before it starts timing an
// execution. Concurrent calls build once.
func Warm(prog *types.Program) { resolve(prog) }

// Resolved reports whether the program's resolution is held: built, or
// being built, by an execution or a Warm, and not released since.
func Resolved(prog *types.Program) bool {
	_, ok := resolveCache.Load(prog)
	return ok
}

// Release drops the program's cached resolution and compiled bodies,
// letting a long-running process reclaim the memory of programs it has
// evicted. An execution holds its resolution, so a release beside one
// is safe, but it reclaims nothing while one can still start: an
// execution of prog after the release resolves the program into the
// cache again, and that copy stays until the next Release. Release a
// program after its last execution.
func Release(prog *types.Program) { resolveCache.Delete(prog) }

func buildResolution(prog *types.Program) *resolution {
	r := &resolution{
		tmpl:    templates(prog),
		methods: make([]*methodSlots, len(prog.Methods)),
		consts:  make([]Value, len(prog.ConstNames)),
	}
	for i, name := range prog.ConstNames {
		if cv := prog.Consts[name]; cv.IsInt {
			r.consts[i] = IntValue(cv.I)
		} else {
			r.consts[i] = FloatValue(cv.F)
		}
	}
	for _, m := range prog.Methods {
		ms := &methodSlots{n: len(m.Frame), paramCo: make([]ast.Coercion, len(m.Params)), retCo: types.Coercion(m.Ret)}
		for i, p := range m.Params {
			ms.paramCo[i] = types.Coercion(p.Type)
		}
		r.methods[m.ID] = ms
	}
	r.compiled, r.loopBodies = compileAll(prog, r)
	return r
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
