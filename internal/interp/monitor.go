package interp

import (
	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
)

// Mon observes — and may redirect — every shared-state access a
// compiled body performs: object field loads and stores, and array
// element loads and stores. The speculative runtime installs one Mon
// per task to buffer writes and log reads; a load consults the monitor
// so a task reads its own buffered writes instead of the live heap.
//
// The compiled engine keeps two sets of closure-compiled bodies — the
// unmonitored hot path, byte-identical to what an unmonitored program
// always ran, and a monitored set (built lazily on first use) whose
// field/element kernels call the monitor unconditionally. Call and
// RunLoopIteration select the monitored set whenever Ctx.Mon is
// non-nil. The tree walker, the serial reference, has no monitored
// kernels: it fails a call made under a monitor (errWalkerMon) rather
// than run it unobserved. Locals, parameters, and constants are
// frame-private and are never reported.
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

// SlotField is the reverse of FieldSlot: it reports the declaring
// class and field name of slot in an object of class cl, preferring
// the most-derived declaration when a field is shadowed. The
// speculation validator uses it to map observed slot accesses back to
// the effect descriptors the analysis reasoned about.
func (ip *Interp) SlotField(cl *types.Class, slot int) (*types.Class, string, bool) {
	for c := cl; c != nil; c = c.Base {
		for _, f := range c.Fields {
			if ip.res.layout.slot(cl, f.Class.Name, f.Name) == slot {
				return f.Class, f.Name, true
			}
		}
	}
	return nil, "", false
}

// indexLoadMon is the monitored variant of the indexLoad kernel: the
// same checks, with the element read routed through the monitor. The
// unmonitored kernels stay untouched — they are shared with the
// compiled engine's hot path.
func indexLoadMon(mon Mon, arrV, idxV Value, x *ast.IndexExpr) (Value, error) {
	if arrV.kind != KArray {
		return Value{}, rtErrf(errIndexNonArr, x.Pos())
	}
	if idxV.kind != KInt {
		return Value{}, rtErrf(errIndexNonInt, x.Pos())
	}
	arr := arrV.ref.(*Array)
	i := int64(idxV.num)
	if i < 0 || int(i) >= len(arr.Elems) {
		return Value{}, rtErrf(errIndexRange, i, len(arr.Elems), x.Pos())
	}
	return mon.LoadElem(arr, int(i)), nil
}

// indexStoreMon is the monitored variant of the indexStore kernel.
func indexStoreMon(mon Mon, arrV, idxV, v Value, x *ast.IndexExpr) error {
	if arrV.kind != KArray {
		return rtErrf(errIndexStoreArr, x.Pos())
	}
	arr := arrV.ref.(*Array)
	if idxV.kind != KInt {
		return rtErrf(errIndexStoreRng, idxV.Any(), x.Pos())
	}
	i := int64(idxV.num)
	if i < 0 || int(i) >= len(arr.Elems) {
		return rtErrf(errIndexStoreRng, idxV.Any(), x.Pos())
	}
	mon.StoreElem(arr, int(i), coerceKind(x.Coerce, v))
	return nil
}
