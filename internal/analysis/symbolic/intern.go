package symbolic

import (
	"slices"
	"sync"
)

// Table hash-conses the composite expressions of one analysis (§4.8.2
// support). Every composite node built through a table goes through one
// of the mk* constructors below, which intern it by kind and canonical
// rendering. Consequences:
//
//   - structurally identical nodes of one table share one allocation,
//     so Expr values compare with == (pointer identity for composites,
//     value identity for leaves);
//   - each node's canonical key is computed exactly once, from its
//     children's cached keys (O(fan-out), not O(subtree));
//   - Simplify memoizes per node (see simplify.go), so a shared subterm
//     is simplified once no matter how many expressions contain it.
//
// A table lives as long as the Cache that owns it, which an analysis
// drops with the rest of its memo; no expression outlives the analysis
// that built it unless a report keeps it. A nil *Table is accepted
// wherever a table is: it builds uninterned nodes and memoizes nothing.
// Correctness never depends on canonicality, since nodes of different
// tables, or of none, render the same Key(), which Equal falls back to.
//
// Safe for concurrent use: the goroutines that ask one analysis for
// reports at once share its table, one node map and one Simplify memo
// behind one mutex.
type Table struct {
	mu         sync.Mutex
	nodes      map[string]Expr // kind byte + canonical key → node
	simplified map[Expr]Expr   // node → its Simplify
}

// Node kinds. A node is interned under its kind byte followed by its
// key, which keeps the table injective per node type even if two kinds
// ever rendered the same key.
const (
	kNary byte = iota
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

// NewTable returns an empty table.
func NewTable() *Table { return newTable(0) }

// newTable returns an empty table sized for the analysis of a program
// of the given number of expressions, which interns about half as many
// nodes and simplifies about a third as many.
func newTable(exprs int) *Table {
	return &Table{
		nodes:      make(map[string]Expr, exprs/2),
		simplified: make(map[Expr]Expr, exprs/3),
	}
}

// intern returns tab's node for ik, a kind byte followed by a key,
// installing build(key)'s result on first sight; without a table it
// returns build(key)'s result. Only a node not seen before costs its
// key a string. The slices referenced by the built node must never be
// mutated afterwards.
func (tab *Table) intern(ik keyBuf, build func(key string) Expr) Expr {
	if tab == nil {
		return build(string(ik[1:]))
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if e, ok := tab.nodes[string(ik)]; ok {
		return e
	}
	k := string(ik)
	e := build(k[1:])
	tab.nodes[k] = e
	return e
}

// kind starts the interning key of a node of the given kind in buf,
// which holds most keys without growing.
func kind(buf *[256]byte, k byte) keyBuf { return append(keyBuf(buf[:0]), k) }

// Constructors. A slice argument is copied into a node the table does
// not hold yet and is otherwise only read, so callers may pass scratch.

func (tab *Table) mkNary(op Op, args []Expr) Expr {
	var buf [256]byte
	return tab.intern(naryKey(kind(&buf, kNary), op, args), func(k string) Expr {
		return &Nary{Op: op, Args: slices.Clone(args), key: k}
	})
}

func (tab *Table) mkBin(op Op, l, r Expr) Expr {
	var buf [256]byte
	return tab.intern(binKey(kind(&buf, kBin), op, l, r), func(k string) Expr { return &Bin{Op: op, L: l, R: r, key: k} })
}

func (tab *Table) mkNeg(x Expr) Expr {
	var buf [256]byte
	return tab.intern(negKey(kind(&buf, kNeg), x), func(k string) Expr { return &Neg{X: x, key: k} })
}

func (tab *Table) mkNot(x Expr) Expr {
	var buf [256]byte
	return tab.intern(notKey(kind(&buf, kNot), x), func(k string) Expr { return &Not{X: x, key: k} })
}

func (tab *Table) mkCall(fn string, args []Expr) Expr {
	var buf [256]byte
	return tab.intern(callKey(kind(&buf, kCall), fn, args), func(k string) Expr {
		return &Call{Fn: fn, Args: slices.Clone(args), key: k}
	})
}

func (tab *Table) mkCond(c, then, els Expr) Expr {
	var buf [256]byte
	return tab.intern(condKey(kind(&buf, kCond), c, then, els), func(k string) Expr { return &Cond{C: c, T: then, F: els, key: k} })
}

func (tab *Table) mkArrUpd(arr Expr, op Op, operand Expr) Expr {
	var buf [256]byte
	return tab.intern(arrUpdKey(kind(&buf, kArrUpd), arr, op, operand), func(k string) Expr {
		return &ArrUpd{Arr: arr, Op: op, Operand: operand, key: k}
	})
}

func (tab *Table) mkArrFill(elem Expr) Expr {
	var buf [256]byte
	return tab.intern(arrFillKey(kind(&buf, kArrFill), elem), func(k string) Expr { return &ArrFill{Elem: elem, key: k} })
}

func (tab *Table) mkArrStore(arr, idx, val Expr) Expr {
	var buf [256]byte
	return tab.intern(arrStoreKey(kind(&buf, kArrStore), arr, idx, val), func(k string) Expr {
		return &ArrStore{Arr: arr, Idx: idx, Val: val, key: k}
	})
}

func (tab *Table) mkArrSel(arr, idx Expr) Expr {
	var buf [256]byte
	return tab.intern(arrSelKey(kind(&buf, kArrSel), arr, idx), func(k string) Expr { return &ArrSel{Arr: arr, Idx: idx, key: k} })
}

func (tab *Table) mkAccumAt(arr Expr, op Op, idx, delta Expr) Expr {
	var buf [256]byte
	return tab.intern(accumAtKey(kind(&buf, kAccumAt), arr, op, idx, delta), func(k string) Expr {
		return &AccumAt{Arr: arr, Op: op, Idx: idx, Delta: delta, key: k}
	})
}

// Intern canonicalizes an expression tree bottom-up in tab, returning the
// interned equivalent. Useful for expressions constructed as raw
// composite literals (tests, external callers). A node that already
// carries its key was built by a constructor and is returned as is.
func Intern(tab *Table, e Expr) Expr {
	switch x := e.(type) {
	case nil, Num, Bool, Null, Extent, Var:
		return e
	case *Nary:
		if x.key != "" {
			return x
		}
		var buf [8]Expr
		return tab.mkNary(x.Op, internArgs(tab, buf[:0], x.Args))
	case *Bin:
		if x.key != "" {
			return x
		}
		return tab.mkBin(x.Op, Intern(tab, x.L), Intern(tab, x.R))
	case *Neg:
		if x.key != "" {
			return x
		}
		return tab.mkNeg(Intern(tab, x.X))
	case *Not:
		if x.key != "" {
			return x
		}
		return tab.mkNot(Intern(tab, x.X))
	case *Call:
		if x.key != "" {
			return x
		}
		var buf [8]Expr
		return tab.mkCall(x.Fn, internArgs(tab, buf[:0], x.Args))
	case *Cond:
		if x.key != "" {
			return x
		}
		return tab.mkCond(Intern(tab, x.C), Intern(tab, x.T), Intern(tab, x.F))
	case *ArrUpd:
		if x.key != "" {
			return x
		}
		return tab.mkArrUpd(Intern(tab, x.Arr), x.Op, Intern(tab, x.Operand))
	case *ArrFill:
		if x.key != "" {
			return x
		}
		return tab.mkArrFill(Intern(tab, x.Elem))
	case *ArrStore:
		if x.key != "" {
			return x
		}
		return tab.mkArrStore(Intern(tab, x.Arr), Intern(tab, x.Idx), Intern(tab, x.Val))
	case *ArrSel:
		if x.key != "" {
			return x
		}
		return tab.mkArrSel(Intern(tab, x.Arr), Intern(tab, x.Idx))
	case *AccumAt:
		if x.key != "" {
			return x
		}
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
