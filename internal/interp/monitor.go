package interp

// Mon observes — and may redirect — every shared-state access a body
// performs: object field loads and stores, and array element loads and
// stores. The speculative runtime installs one Mon per task to buffer
// writes and log reads; a load consults the monitor so a task reads its
// own buffered writes instead of the live heap.
//
// The tree walker is the one monitored engine: its six shared-state
// sites — a this field, o->f and a[i], each loaded and stored — call
// the monitor whenever Ctx.Mon is non-nil, and Call and
// RunLoopIteration run a body entered under a monitor on the walker,
// whatever the engine. The compiled closures carry no monitor branch.
// Locals, parameters, and constants are frame-private and are never
// reported.
type Mon interface {
	// LoadField returns the value of o's field slot, consulting any
	// buffered write first.
	LoadField(o *Object, slot int) Value
	// StoreField records a write of v (already coerced) to o's field
	// slot. The live object is not modified.
	StoreField(o *Object, slot int, v Value)
	// LoadElem returns element idx of a (bounds already checked).
	LoadElem(a *Array, idx int) Value
	// StoreElem records a write of v (already coerced and
	// bounds-checked) to element idx of a.
	StoreElem(a *Array, idx int, v Value)
}
