package symbolic_test

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"commute/internal/analysis/symbolic"
)

// genAny builds a random expression tree of every node kind as raw,
// uninterned literals.
func genAny(r *rand.Rand, depth int) symbolic.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return symbolic.Num{V: float64(r.Intn(5) - 2), IsInt: true}
		case 1:
			return symbolic.Num{V: float64(r.Intn(5)-2) / 4}
		case 2:
			return symbolic.Bool{V: r.Intn(2) == 0}
		case 3:
			return symbolic.Null{}
		case 4:
			return symbolic.Extent{ID: "ec:" + string(rune('x'+r.Intn(3)))}
		default:
			return symbolic.Var{Name: string(rune('a' + r.Intn(4)))}
		}
	}
	ops := []symbolic.Op{symbolic.OpAdd, symbolic.OpMul, symbolic.OpAnd, symbolic.OpLt, symbolic.OpDiv, symbolic.OpEq}
	op := ops[r.Intn(len(ops))]
	sub := func() symbolic.Expr { return genAny(r, depth-1) }
	args := func() []symbolic.Expr {
		xs := make([]symbolic.Expr, 1+r.Intn(3))
		for i := range xs {
			xs[i] = sub()
		}
		return xs
	}
	switch r.Intn(11) {
	case 0:
		return &symbolic.Nary{Op: op, Args: args()}
	case 1:
		return &symbolic.Bin{Op: op, L: sub(), R: sub()}
	case 2:
		return &symbolic.Neg{X: sub()}
	case 3:
		return &symbolic.Not{X: sub()}
	case 4:
		return &symbolic.Call{Fn: "sqrt", Args: args()}
	case 5:
		return &symbolic.Cond{C: sub(), T: sub(), F: sub()}
	case 6:
		return &symbolic.ArrUpd{Arr: sub(), Op: op, Operand: sub()}
	case 7:
		return &symbolic.ArrFill{Elem: sub()}
	case 8:
		return &symbolic.ArrStore{Arr: sub(), Idx: sub(), Val: sub()}
	case 9:
		return &symbolic.ArrSel{Arr: sub(), Idx: sub()}
	default:
		return &symbolic.AccumAt{Arr: sub(), Op: op, Idx: sub(), Delta: sub()}
	}
}

// eager renders e from scratch, reading no node's kept key: the
// canonical text every Key must produce.
func eager(e symbolic.Expr) string {
	list := func(xs []symbolic.Expr, sep string) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = eager(x)
		}
		return strings.Join(parts, sep)
	}
	switch x := e.(type) {
	case symbolic.Num:
		if x.IsInt {
			return strconv.FormatInt(int64(x.V), 10)
		}
		return strconv.FormatFloat(x.V, 'g', -1, 64)
	case symbolic.Bool:
		return strconv.FormatBool(x.V)
	case symbolic.Null:
		return "NULL"
	case symbolic.Extent:
		return "⟨" + x.ID + "⟩"
	case symbolic.Var:
		return x.Name
	case *symbolic.Nary:
		return "(" + list(x.Args, " "+x.Op.String()+" ") + ")"
	case *symbolic.Bin:
		return "(" + eager(x.L) + " " + x.Op.String() + " " + eager(x.R) + ")"
	case *symbolic.Neg:
		return "(-" + eager(x.X) + ")"
	case *symbolic.Not:
		return "(!" + eager(x.X) + ")"
	case *symbolic.Call:
		return x.Fn + "(" + list(x.Args, ", ") + ")"
	case *symbolic.Cond:
		return "(" + eager(x.C) + " ? " + eager(x.T) + " : " + eager(x.F) + ")"
	case *symbolic.ArrUpd:
		return "upd(" + eager(x.Arr) + " " + x.Op.String() + "= " + eager(x.Operand) + ")"
	case *symbolic.ArrFill:
		return "fill(" + eager(x.Elem) + ")"
	case *symbolic.ArrStore:
		return "store(" + eager(x.Arr) + ", " + eager(x.Idx) + ", " + eager(x.Val) + ")"
	case *symbolic.ArrSel:
		return "sel(" + eager(x.Arr) + ", " + eager(x.Idx) + ")"
	case *symbolic.AccumAt:
		return "accum(" + eager(x.Arr) + "[" + eager(x.Idx) + "] " + x.Op.String() + "= " + eager(x.Delta) + ")"
	}
	panic("unknown node")
}

// subterms appends e and every expression below it, parents first.
func subterms(dst []symbolic.Expr, e symbolic.Expr) []symbolic.Expr {
	dst = append(dst, e)
	switch x := e.(type) {
	case *symbolic.Nary:
		for _, a := range x.Args {
			dst = subterms(dst, a)
		}
	case *symbolic.Bin:
		dst = subterms(subterms(dst, x.L), x.R)
	case *symbolic.Neg:
		dst = subterms(dst, x.X)
	case *symbolic.Not:
		dst = subterms(dst, x.X)
	case *symbolic.Call:
		for _, a := range x.Args {
			dst = subterms(dst, a)
		}
	case *symbolic.Cond:
		dst = subterms(subterms(subterms(dst, x.C), x.T), x.F)
	case *symbolic.ArrUpd:
		dst = subterms(subterms(dst, x.Arr), x.Operand)
	case *symbolic.ArrFill:
		dst = subterms(dst, x.Elem)
	case *symbolic.ArrStore:
		dst = subterms(subterms(subterms(dst, x.Arr), x.Idx), x.Val)
	case *symbolic.ArrSel:
		dst = subterms(subterms(dst, x.Arr), x.Idx)
	case *symbolic.AccumAt:
		dst = subterms(subterms(subterms(dst, x.Arr), x.Idx), x.Delta)
	}
	return dst
}

// TestLazyKeyMatchesEagerRendering: over random trees of every node
// kind, interned, simplified or neither, each node's Key — read in a
// random order, so that some parents render before their children and
// some after — equals the tree rendered from scratch.
func TestLazyKeyMatchesEagerRendering(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	tab := symbolic.NewTable()
	for trial := range 400 {
		raw := genAny(r, 5)
		want := eager(raw)
		for _, e := range []symbolic.Expr{raw, symbolic.Intern(tab, raw), symbolic.Simplify(tab, symbolic.Intern(tab, raw))} {
			nodes := subterms(nil, e)
			r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			for _, n := range nodes {
				if got, want := n.Key(), eager(n); got != want {
					t.Fatalf("trial %d: Key() = %s, rendered from scratch %s", trial, got, want)
				}
			}
		}
		if got := raw.Key(); got != want {
			t.Fatalf("trial %d: Key() after its subterms = %s, want %s", trial, got, want)
		}
	}
}

// TestRendersAlikeStaysEqual: an int 1 and a double 1 render alike but
// are different leaves, so the table keeps their parents apart; Equal,
// which falls back to the rendering, still calls them equal. A double
// -0 and 0 differ in both.
func TestRendersAlikeStaysEqual(t *testing.T) {
	tab := symbolic.NewTable()
	x := symbolic.Var{Name: "x"}
	lt := func(n symbolic.Num) symbolic.Expr {
		return symbolic.Intern(tab, &symbolic.Bin{Op: symbolic.OpLt, L: x, R: n})
	}
	i, d := lt(symbolic.Num{V: 1, IsInt: true}), lt(symbolic.Num{V: 1})
	if i == d {
		t.Fatalf("%s: an int 1 and a double 1 interned to one node", i.Key())
	}
	if !symbolic.Equal(i, d) || !symbolic.Equal(d, i) {
		t.Fatalf("%s and %s render alike but are not Equal", i.Key(), d.Key())
	}
	if i != lt(symbolic.Num{V: 1, IsInt: true}) || d != lt(symbolic.Num{V: 1}) {
		t.Fatalf("interning %s twice made two nodes", i.Key())
	}
	pz, nz := lt(symbolic.Num{V: 0}), lt(symbolic.Num{V: math.Copysign(0, -1)})
	if pz == nz || symbolic.Equal(pz, nz) {
		t.Fatalf("%s and %s: a double 0 and -0 are one expression", pz.Key(), nz.Key())
	}
}

// TestConcurrentFirstKey: the goroutines of one analysis share its
// nodes, so several may read a node's Key for the first time at once;
// each gets the full rendering (and -race sees no unsynchronized
// access).
func TestConcurrentFirstKey(t *testing.T) {
	tab := symbolic.NewTable()
	r := rand.New(rand.NewSource(7))
	for range 20 {
		raw := genAny(r, 6)
		e, want := symbolic.Intern(tab, raw), eager(raw)
		nodes := subterms(nil, e)
		const goroutines = 8
		got := make([][]string, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range nodes {
					// Half the goroutines read from the leaves up.
					n := nodes[i]
					if g%2 == 1 {
						n = nodes[len(nodes)-1-i]
					}
					got[g] = append(got[g], n.Key())
				}
			}()
		}
		wg.Wait()
		for g := range goroutines {
			top := got[g][0]
			if g%2 == 1 {
				top = got[g][len(nodes)-1]
			}
			if top != want {
				t.Fatalf("goroutine %d read %s, want %s", g, top, want)
			}
		}
	}
}
