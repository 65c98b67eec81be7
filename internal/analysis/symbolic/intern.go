package symbolic

import (
	"hash/maphash"
	"math"
	"slices"
	"sync"
)

// Table hash-conses the composite expressions of one analysis (§4.8.2
// support). Every composite node built through a table goes through one
// of the mk* constructors below, which intern it by identity: its kind,
// its operator or function name, and its operands — leaves by value,
// composites by the node they are. Consequences:
//
//   - structurally identical nodes of one table share one allocation,
//     so Expr values compare with == (pointer identity for composites,
//     value identity for leaves);
//   - looking a node up costs a hash of its operands' identities, a
//     fixed-size word, and a shallow comparison; no rendering is made,
//     and a node's Key is rendered only if someone reads it;
//   - Simplify memoizes per node (see simplify.go), so a shared subterm
//     is simplified once no matter how many expressions contain it.
//
// A table lives as long as the Cache that owns it, which an analysis
// drops with the rest of its memo; no expression outlives the analysis
// that built it unless a report keeps it. A nil *Table is accepted
// wherever a table is: it builds uninterned nodes and memoizes nothing.
// Correctness never depends on canonicality, since nodes of different
// tables, or of none, render the same Key(), which Equal falls back to;
// so do two nodes whose operands are distinct leaves that render alike
// (an int 1 and a double 1).
//
// Safe for concurrent use: the goroutines that ask one analysis for
// reports at once share its table, one node map and one Simplify memo
// behind one mutex.
type Table struct {
	mu sync.Mutex
	// nodes holds each node under its shape hash, or, when that slot
	// is taken by another node, under the next free one above it: a
	// lookup probes upwards from the hash until it finds the node or a
	// free slot. Nothing is ever removed, so no probe chain breaks.
	nodes      map[uint64]Expr
	simplified map[Expr]Expr // node → its Simplify
	ids        uint64        // the last identity given out
}

// NewTable returns an empty table.
func NewTable() *Table { return newTable(0) }

// newTable returns an empty table sized for the analysis of a program
// of the given number of expressions. Over the benchmark's corpus a
// table interns about half as many nodes and simplifies about a third
// as many (EXPERIMENTS.md, "Interning by identity"); growing from empty
// instead allocates 4 % more per compile.
func newTable(exprs int) *Table {
	return &Table{
		nodes:      make(map[uint64]Expr, exprs/2),
		simplified: make(map[Expr]Expr, exprs/3),
	}
}

// shape is the hash of a node under construction: its kind, its
// operator, and its operands' identities, mixed a word at a time.
type shape uint64

// Node kinds, the first word of every shape.
const (
	kNary uint64 = iota
	kBin
	kNeg
	kNot
	kCall
	kCond
	kArrUpd
	kArrFill
	kArrStore
	kArrSel
	kAccumAt
)

// nameSeed keys the hash of a name.
var nameSeed = maphash.MakeSeed()

// shapeOf starts the shape of a node of kind k with operator word op.
func shapeOf(k, op uint64) shape { return shape(0).word(k).word(op) }

// word mixes w into h.
func (h shape) word(w uint64) shape {
	h ^= shape(w)
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// name mixes a name into h.
func (h shape) name(s string) shape { return h.word(maphash.String(nameSeed, s)) }

// of mixes x's identity into h: its value for a leaf, its table's
// identity for a composite.
func (h shape) of(x Expr) shape {
	switch v := x.(type) {
	case Num:
		h = h.word(1).word(math.Float64bits(v.V))
		if v.IsInt {
			h = h.word(1)
		}
		return h
	case Bool:
		if v.V {
			return h.word(2).word(1)
		}
		return h.word(2)
	case Null:
		return h.word(3)
	case Extent:
		return h.word(4).name(v.ID)
	case Var:
		return h.word(5).name(v.Name)
	case composite:
		return h.word(6).word(v.hdr().id)
	}
	return h.word(7) // nil
}

// ofAll mixes the identities of xs into h.
func (h shape) ofAll(xs []Expr) shape {
	h = h.word(uint64(len(xs)))
	for _, x := range xs {
		h = h.of(x)
	}
	return h
}

// same reports whether two operands are the same: the same node, or
// leaves of the same value (a double compared by its bits, so that -0
// and 0, which render apart, stay apart).
func same(a, b Expr) bool {
	if x, ok := a.(Num); ok {
		y, ok := b.(Num)
		return ok && x.IsInt == y.IsInt && math.Float64bits(x.V) == math.Float64bits(y.V)
	}
	return a == b
}

// sameAll reports whether two operand lists are the same, operand by
// operand.
func sameAll(a, b []Expr) bool { return slices.EqualFunc(a, b, same) }

// intern returns the node of shape h in tab that is accepts, or on
// first sight installs build()'s result under the table's next
// identity; without a table it returns build()'s result. Only a node
// not seen before is allocated. The slices referenced by the built node
// must never be mutated afterwards.
func (tab *Table) intern(h shape, is func(Expr) bool, build func() composite) Expr {
	if tab == nil {
		return build()
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	slot := uint64(h)
	for {
		e, ok := tab.nodes[slot]
		if !ok {
			break
		}
		if is(e) {
			return e
		}
		slot++
	}
	c := build()
	tab.ids++
	c.hdr().id = tab.ids
	tab.nodes[slot] = c
	return c
}

// Constructors. A slice argument is copied into a node the table does
// not hold yet and is otherwise only read, so callers may pass scratch.

func (tab *Table) mkNary(op Op, args []Expr) Expr {
	return tab.intern(shapeOf(kNary, uint64(op)).ofAll(args), func(e Expr) bool {
		x, ok := e.(*Nary)
		return ok && x.Op == op && sameAll(x.Args, args)
	}, func() composite { return &Nary{Op: op, Args: slices.Clone(args)} })
}

func (tab *Table) mkBin(op Op, l, r Expr) Expr {
	return tab.intern(shapeOf(kBin, uint64(op)).of(l).of(r), func(e Expr) bool {
		x, ok := e.(*Bin)
		return ok && x.Op == op && same(x.L, l) && same(x.R, r)
	}, func() composite { return &Bin{Op: op, L: l, R: r} })
}

func (tab *Table) mkNeg(x Expr) Expr {
	return tab.intern(shapeOf(kNeg, 0).of(x), func(e Expr) bool {
		n, ok := e.(*Neg)
		return ok && same(n.X, x)
	}, func() composite { return &Neg{X: x} })
}

func (tab *Table) mkNot(x Expr) Expr {
	return tab.intern(shapeOf(kNot, 0).of(x), func(e Expr) bool {
		n, ok := e.(*Not)
		return ok && same(n.X, x)
	}, func() composite { return &Not{X: x} })
}

func (tab *Table) mkCall(fn string, args []Expr) Expr {
	return tab.intern(shapeOf(kCall, 0).name(fn).ofAll(args), func(e Expr) bool {
		x, ok := e.(*Call)
		return ok && x.Fn == fn && sameAll(x.Args, args)
	}, func() composite { return &Call{Fn: fn, Args: slices.Clone(args)} })
}

func (tab *Table) mkCond(c, then, els Expr) Expr {
	return tab.intern(shapeOf(kCond, 0).of(c).of(then).of(els), func(e Expr) bool {
		x, ok := e.(*Cond)
		return ok && same(x.C, c) && same(x.T, then) && same(x.F, els)
	}, func() composite { return &Cond{C: c, T: then, F: els} })
}

func (tab *Table) mkArrUpd(arr Expr, op Op, operand Expr) Expr {
	return tab.intern(shapeOf(kArrUpd, uint64(op)).of(arr).of(operand), func(e Expr) bool {
		x, ok := e.(*ArrUpd)
		return ok && x.Op == op && same(x.Arr, arr) && same(x.Operand, operand)
	}, func() composite { return &ArrUpd{Arr: arr, Op: op, Operand: operand} })
}

func (tab *Table) mkArrFill(elem Expr) Expr {
	return tab.intern(shapeOf(kArrFill, 0).of(elem), func(e Expr) bool {
		x, ok := e.(*ArrFill)
		return ok && same(x.Elem, elem)
	}, func() composite { return &ArrFill{Elem: elem} })
}

func (tab *Table) mkArrStore(arr, idx, val Expr) Expr {
	return tab.intern(shapeOf(kArrStore, 0).of(arr).of(idx).of(val), func(e Expr) bool {
		x, ok := e.(*ArrStore)
		return ok && same(x.Arr, arr) && same(x.Idx, idx) && same(x.Val, val)
	}, func() composite { return &ArrStore{Arr: arr, Idx: idx, Val: val} })
}

func (tab *Table) mkArrSel(arr, idx Expr) Expr {
	return tab.intern(shapeOf(kArrSel, 0).of(arr).of(idx), func(e Expr) bool {
		x, ok := e.(*ArrSel)
		return ok && same(x.Arr, arr) && same(x.Idx, idx)
	}, func() composite { return &ArrSel{Arr: arr, Idx: idx} })
}

func (tab *Table) mkAccumAt(arr Expr, op Op, idx, delta Expr) Expr {
	return tab.intern(shapeOf(kAccumAt, uint64(op)).of(arr).of(idx).of(delta), func(e Expr) bool {
		x, ok := e.(*AccumAt)
		return ok && x.Op == op && same(x.Arr, arr) && same(x.Idx, idx) && same(x.Delta, delta)
	}, func() composite { return &AccumAt{Arr: arr, Op: op, Idx: idx, Delta: delta} })
}

// Intern canonicalizes an expression tree bottom-up in tab, returning the
// interned equivalent. Useful for expressions constructed as raw
// composite literals (tests, external callers). A node that some table
// already interned is returned as is; without a table, so is every
// expression.
func Intern(tab *Table, e Expr) Expr {
	c, ok := e.(composite)
	if !ok || tab == nil || c.hdr().id != 0 {
		return e
	}
	switch x := e.(type) {
	case *Nary:
		var buf [8]Expr
		return tab.mkNary(x.Op, internArgs(tab, buf[:0], x.Args))
	case *Bin:
		return tab.mkBin(x.Op, Intern(tab, x.L), Intern(tab, x.R))
	case *Neg:
		return tab.mkNeg(Intern(tab, x.X))
	case *Not:
		return tab.mkNot(Intern(tab, x.X))
	case *Call:
		var buf [8]Expr
		return tab.mkCall(x.Fn, internArgs(tab, buf[:0], x.Args))
	case *Cond:
		return tab.mkCond(Intern(tab, x.C), Intern(tab, x.T), Intern(tab, x.F))
	case *ArrUpd:
		return tab.mkArrUpd(Intern(tab, x.Arr), x.Op, Intern(tab, x.Operand))
	case *ArrFill:
		return tab.mkArrFill(Intern(tab, x.Elem))
	case *ArrStore:
		return tab.mkArrStore(Intern(tab, x.Arr), Intern(tab, x.Idx), Intern(tab, x.Val))
	case *ArrSel:
		return tab.mkArrSel(Intern(tab, x.Arr), Intern(tab, x.Idx))
	case *AccumAt:
		return tab.mkAccumAt(Intern(tab, x.Arr), x.Op, Intern(tab, x.Idx), Intern(tab, x.Delta))
	}
	return e
}

// internArgs appends the interned args to dst.
func internArgs(tab *Table, dst, args []Expr) []Expr {
	for _, a := range args {
		dst = append(dst, Intern(tab, a))
	}
	return dst
}
