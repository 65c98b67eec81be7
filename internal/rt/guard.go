package rt

import (
	"commute/internal/codegen"
	"commute/internal/cond"
)

// This file implements the runtime side of conditional commutativity:
// a region whose plan entry carries a synthesized guard predicate
// (codegen.MethodPlan.Conditional) evaluates the guard against the
// live heap at region entry (serialCtx) — true runs the parallel region
// exactly like a proven extent, false takes the original serial path. The
// guard reads only extent-constant fields of global objects (the
// cond.Guardable fragment), so evaluating it before the region opens
// observes the same values every operation in the region would.

// compileGuard renders a plan guard as a closure over the interpreter's
// global object slots. The planner checked the guard against the program
// (cond.Check), so every leaf names a field of a global object at the
// kind it reads, and the interpreter allocates a global object per
// program global.
func (rt *Runtime) compileGuard(mp *codegen.MethodPlan) func() bool {
	return mp.Guard.Func(func(ref cond.FieldRef, kind cond.Kind) func() cond.Value {
		obj := rt.IP.Globals[ref.Global]
		slot := rt.IP.Prog.Classes[ref.Class].FieldByName(ref.Field).Slot
		switch kind {
		case cond.KInt:
			return func() cond.Value { return cond.IntVal(obj.Slots[slot].Int()) }
		case cond.KFloat:
			return func() cond.Value { return cond.FloatVal(obj.Slots[slot].Float()) }
		}
		return func() cond.Value { return cond.BoolVal(obj.Slots[slot].Bool()) }
	})
}

// guardHolds evaluates the root's guard, rendering it on first use (the
// closure stays in the run's dispatch table).
func (rt *Runtime) guardHolds(e *methodEntry) bool {
	if e.guard == nil {
		e.guard = rt.compileGuard(e.mp)
	}
	return e.guard()
}
