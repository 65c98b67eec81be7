package rt

import (
	"fmt"

	"commute/internal/codegen"
	"commute/internal/cond"
	"commute/internal/frontend/types"
)

// This file implements the runtime side of conditional commutativity:
// a region whose plan entry carries a synthesized guard predicate
// (codegen.MethodPlan.Conditional) evaluates the guard against the
// live heap at region entry (serialCtx) — true runs the parallel region
// exactly like a proven extent, false takes the original serial path. The
// guard reads only extent-constant fields of global objects (the
// cond.Guardable fragment), so evaluating it before the region opens
// observes the same values every operation in the region would.

// compileGuard lowers a plan guard to a closure over the interpreter's
// global object slots. Compilation is infallible in practice: the
// planner only marks an extent Conditional after resolving every field
// reference against the program (codegen.ResolveGuardRef), and the
// interpreter allocates a global object per program global — but a
// mismatch still returns an error rather than panicking, and the
// caller degrades to the serial path.
func (rt *Runtime) compileGuard(mp *codegen.MethodPlan) (func() bool, error) {
	return cond.Compile(mp.Guard, func(ref cond.FieldRef) (cond.Leaf, error) {
		obj := rt.IP.Globals[ref.Global]
		if obj == nil {
			return cond.Leaf{}, fmt.Errorf("guard references unknown global %q", ref.Global)
		}
		_, field, ok := codegen.ResolveGuardRef(rt.IP.Prog, ref)
		if !ok {
			return cond.Leaf{}, fmt.Errorf("guard reference %s.%s does not resolve", ref.Class, ref.Field)
		}
		slot := rt.IP.FieldSlot(obj.Class, ref.Class, ref.Field)
		var kind cond.Kind
		switch field.Type {
		case types.Basic(types.Int):
			kind = cond.KInt
		case types.Basic(types.Double):
			kind = cond.KFloat
		case types.Basic(types.Bool):
			kind = cond.KBool
		default:
			return cond.Leaf{}, fmt.Errorf("guard field %s.%s has non-scalar type %s", ref.Class, ref.Field, field.Type)
		}
		return cond.Leaf{
			Kind: kind,
			Get: func() cond.Value {
				v := obj.Slots[slot]
				switch kind {
				case cond.KInt:
					return cond.IntVal(v.Int())
				case cond.KFloat:
					return cond.FloatVal(v.Float())
				default:
					return cond.BoolVal(v.Bool())
				}
			},
		}, nil
	})
}

// guardHolds evaluates the root's guard, compiling it on first use (the
// compiled closure stays in the run's dispatch table). A guard that
// fails to compile — impossible for plans the planner built, but
// conceivable for a hand-assembled plan — reports false: the serial
// path is always correct.
func (rt *Runtime) guardHolds(e *methodEntry) bool {
	if e.guard == nil {
		g, err := rt.compileGuard(e.mp)
		if err != nil {
			g = func() bool { return false }
		}
		e.guard = g
	}
	return e.guard()
}
