package interp

import (
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

// Code is a checked program's code for the interpreter, beside the
// slots the checker assigned: the constant values, the object templates,
// each method's coercions and array room, and the closure-compiled
// bodies. Compile builds it; every interpreter made from it (New)
// shares it, and it writes nothing into the program or its AST. Its
// owner (commute.System) builds it once, and the garbage collector frees
// it with its owner.
type Code struct {
	prog    *types.Program
	tmpl    map[*types.Class]*objTemplate
	methods []*methodSlots // indexed by types.Method.ID
	consts  []Value        // SymConst Ident.Slot -> value

	// Closure-compiled bodies (see compile.go).
	compiled   []*compiledMethod // indexed by types.Method.ID
	loopBodies map[*ast.ForStmt]loopBody
}

// Compile builds the interpreter's code for a checked program.
func Compile(prog *types.Program) *Code {
	r := &Code{
		prog:    prog,
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

// Warm compiles prog and drops the result. Read by e2ebench until
// ROADMAP 1a drops it.
func Warm(prog *types.Program) { Compile(prog) }

// Release does nothing. Read by e2ebench until ROADMAP 1a drops it.
func Release(*types.Program) {}

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
