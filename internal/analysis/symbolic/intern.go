package symbolic

import (
	"hash/maphash"
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
// Safe for concurrent use. The analysis workers of one program share
// the table; it is split into shards by key, each a pair of plain maps
// behind a mutex, so that they seldom wait on one another.
type Table struct {
	seed   maphash.Seed
	shards [8]shard
}

type shard struct {
	mu         sync.Mutex
	nodes      map[string]Expr // kind byte + canonical key → node
	simplified map[Expr]Expr   // node → its Simplify
	_          [40]byte        // one cache line per shard
}

// shard is the shard of hash h.
func (tab *Table) shard(h uint64) *shard { return &tab.shards[h%uint64(len(tab.shards))] }

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
	tab := &Table{seed: maphash.MakeSeed()}
	n := len(tab.shards)
	for i := range tab.shards {
		tab.shards[i].nodes = make(map[string]Expr, exprs/2/n)
		tab.shards[i].simplified = make(map[Expr]Expr, exprs/3/n)
	}
	return tab
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
	sh := tab.shard(maphash.Bytes(tab.seed, ik))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.nodes[string(ik)]; ok {
		return e
	}
	k := string(ik)
	e := build(k[1:])
	sh.nodes[k] = e
	return e
}

// kind starts the interning key of a node of the given kind in buf,
// which holds most keys without growing.
func kind(buf *[256]byte, k byte) keyBuf { return append(keyBuf(buf[:0]), k) }

// Constructors. Callers hand over ownership of any slice argument.

func (tab *Table) mkNary(op Op, args []Expr) Expr {
	var buf [256]byte
	return tab.intern(naryKey(kind(&buf, kNary), op, args), func(k string) Expr { return &Nary{Op: op, Args: args, key: k} })
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
	return tab.intern(callKey(kind(&buf, kCall), fn, args), func(k string) Expr { return &Call{Fn: fn, Args: args, key: k} })
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
		return tab.mkNary(x.Op, internSlice(tab, x.Args))
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
		return tab.mkCall(x.Fn, internSlice(tab, x.Args))
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

func internSlice(tab *Table, args []Expr) []Expr {
	out := make([]Expr, len(args))
	for i, a := range args {
		out[i] = Intern(tab, a)
	}
	return out
}
