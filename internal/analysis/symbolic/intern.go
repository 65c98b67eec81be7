package symbolic

import (
	"sync"
	"sync/atomic"
)

// Hash-consing for composite expressions (§4.8.2 support). Every
// composite node built inside the package goes through one of the mk*
// constructors below, which intern the node in a process-wide table
// keyed by its canonical rendering. Consequences:
//
//   - structurally identical nodes share one allocation, so Expr
//     values compare with == (pointer identity for composites, value
//     identity for leaves);
//   - each node's canonical key is computed exactly once, from its
//     children's cached keys (O(fan-out), not O(subtree));
//   - Simplify memoizes per canonical node (see simplify.go), so a
//     shared subterm is simplified once no matter how many expressions
//     contain it.
//
// The table is bounded: once the entry count passes internCap the
// whole epoch is dropped and a fresh table is installed. Correctness
// never depends on canonicality — an uninterned or cross-epoch node
// still renders the same Key() — so the flush only costs future memo
// hits. All table access is lock-free (sync.Map / atomic pointer) and
// safe for the concurrent pair tests in core.
type internTable struct {
	nodes    sync.Map // kind-prefixed canonical key → Expr
	simplify sync.Map // canonical node (Expr) → simplified Expr
	n        atomic.Int64
}

// internCap bounds the total number of entries (nodes + memoized
// simplifications) per epoch.
const internCap = 1 << 19

var curTable atomic.Pointer[internTable]

func init() { curTable.Store(new(internTable)) }

func tab() *internTable { return curTable.Load() }

// bump accounts one new entry and swings to a fresh epoch at the cap.
// Racing goroutines may keep using the old epoch's table briefly;
// their nodes simply stop being canonical, which is harmless.
func (t *internTable) bump() {
	if t.n.Add(1) >= internCap {
		curTable.CompareAndSwap(t, new(internTable))
	}
}

// Kind prefixes keep the intern map injective per node type even if
// two kinds ever rendered the same key.
const (
	kNary     = "n\x00"
	kBin      = "b\x00"
	kNeg      = "g\x00"
	kNot      = "t\x00"
	kCall     = "c\x00"
	kCond     = "d\x00"
	kArrUpd   = "u\x00"
	kArrFill  = "f\x00"
	kArrStore = "s\x00"
	kArrSel   = "l\x00"
	kAccumAt  = "a\x00"
)

// intern returns the canonical node for ik, a kind prefix followed by
// the node's key, installing build()'s result on first sight. The slices
// referenced by the built node must never be mutated afterwards.
func intern(t *internTable, ik string, build func() Expr) Expr {
	if v, ok := t.nodes.Load(ik); ok {
		return v.(Expr)
	}
	v, loaded := t.nodes.LoadOrStore(ik, build())
	if !loaded {
		t.bump()
	}
	return v.(Expr)
}

// Constructors. Callers hand over ownership of any slice argument.

func mkNary(op Op, args []Expr) Expr {
	t := tab()
	ik := naryKey(kNary, op, args)
	k := ik[len(kNary):]
	return intern(t, ik, func() Expr { return &Nary{Op: op, Args: args, key: k} })
}

func mkBin(op Op, l, r Expr) Expr {
	t := tab()
	k := binKey(op, l, r)
	return intern(t, kBin+k, func() Expr { return &Bin{Op: op, L: l, R: r, key: k} })
}

func mkNeg(x Expr) Expr {
	t := tab()
	k := negKey(x)
	return intern(t, kNeg+k, func() Expr { return &Neg{X: x, key: k} })
}

func mkNot(x Expr) Expr {
	t := tab()
	k := notKey(x)
	return intern(t, kNot+k, func() Expr { return &Not{X: x, key: k} })
}

func mkCall(fn string, args []Expr) Expr {
	t := tab()
	k := callKey(fn, args)
	return intern(t, kCall+k, func() Expr { return &Call{Fn: fn, Args: args, key: k} })
}

func mkCond(c, then, els Expr) Expr {
	t := tab()
	k := condKey(c, then, els)
	return intern(t, kCond+k, func() Expr { return &Cond{C: c, T: then, F: els, key: k} })
}

func mkArrUpd(arr Expr, op Op, operand Expr) Expr {
	t := tab()
	k := arrUpdKey(arr, op, operand)
	return intern(t, kArrUpd+k, func() Expr { return &ArrUpd{Arr: arr, Op: op, Operand: operand, key: k} })
}

func mkArrFill(elem Expr) Expr {
	t := tab()
	k := arrFillKey(elem)
	return intern(t, kArrFill+k, func() Expr { return &ArrFill{Elem: elem, key: k} })
}

func mkArrStore(arr, idx, val Expr) Expr {
	t := tab()
	k := arrStoreKey(arr, idx, val)
	return intern(t, kArrStore+k, func() Expr { return &ArrStore{Arr: arr, Idx: idx, Val: val, key: k} })
}

func mkArrSel(arr, idx Expr) Expr {
	t := tab()
	k := arrSelKey(arr, idx)
	return intern(t, kArrSel+k, func() Expr { return &ArrSel{Arr: arr, Idx: idx, key: k} })
}

func mkAccumAt(arr Expr, op Op, idx, delta Expr) Expr {
	t := tab()
	k := accumAtKey(arr, op, idx, delta)
	return intern(t, kAccumAt+k, func() Expr { return &AccumAt{Arr: arr, Op: op, Idx: idx, Delta: delta, key: k} })
}

// Intern canonicalizes an expression tree bottom-up, returning the
// interned equivalent. Useful for expressions constructed as raw
// composite literals (tests, external callers); nodes built by the
// package are already canonical.
func Intern(e Expr) Expr {
	switch x := e.(type) {
	case nil, Num, Bool, Null, Extent, Var:
		return e
	case *Nary:
		if x.key != "" {
			return x
		}
		return mkNary(x.Op, internSlice(x.Args))
	case *Bin:
		if x.key != "" {
			return x
		}
		return mkBin(x.Op, Intern(x.L), Intern(x.R))
	case *Neg:
		if x.key != "" {
			return x
		}
		return mkNeg(Intern(x.X))
	case *Not:
		if x.key != "" {
			return x
		}
		return mkNot(Intern(x.X))
	case *Call:
		if x.key != "" {
			return x
		}
		return mkCall(x.Fn, internSlice(x.Args))
	case *Cond:
		if x.key != "" {
			return x
		}
		return mkCond(Intern(x.C), Intern(x.T), Intern(x.F))
	case *ArrUpd:
		if x.key != "" {
			return x
		}
		return mkArrUpd(Intern(x.Arr), x.Op, Intern(x.Operand))
	case *ArrFill:
		if x.key != "" {
			return x
		}
		return mkArrFill(Intern(x.Elem))
	case *ArrStore:
		if x.key != "" {
			return x
		}
		return mkArrStore(Intern(x.Arr), Intern(x.Idx), Intern(x.Val))
	case *ArrSel:
		if x.key != "" {
			return x
		}
		return mkArrSel(Intern(x.Arr), Intern(x.Idx))
	case *AccumAt:
		if x.key != "" {
			return x
		}
		return mkAccumAt(Intern(x.Arr), x.Op, Intern(x.Idx), Intern(x.Delta))
	}
	return e
}

func internSlice(args []Expr) []Expr {
	out := make([]Expr, len(args))
	for i, a := range args {
		out[i] = Intern(a)
	}
	return out
}
