package symbolic_test

import (
	"sync"
	"testing"

	"commute/internal/analysis/symbolic"
)

// sum is x + (-y) + 3 as a fresh, uninterned literal.
func sum() symbolic.Expr {
	return &symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{
		symbolic.Var{Name: "x"},
		&symbolic.Neg{X: symbolic.Var{Name: "y"}},
		symbolic.Num{V: 3, IsInt: true},
	}}
}

// TestInternCanonicalizes: structurally equal composite expressions
// intern to the same node of one table, so equality is pointer equality.
func TestInternCanonicalizes(t *testing.T) {
	tab := symbolic.NewTable()
	a, b := symbolic.Intern(tab, sum()), symbolic.Intern(tab, sum())
	if a != b {
		t.Fatalf("structurally equal expressions interned to distinct nodes: %s", a.Key())
	}
	if !symbolic.Equal(a, b) {
		t.Fatalf("interned nodes not Equal: %s", a.Key())
	}
	// Distinct structures must stay distinct.
	c := symbolic.Intern(tab, &symbolic.Neg{X: symbolic.Var{Name: "x"}})
	if c == a {
		t.Fatalf("distinct expressions interned to the same node")
	}
}

// TestTablesShareNoNodes: two tables intern the same structure to two
// nodes, which still compare Equal, and simplify to Equal results.
func TestTablesShareNoNodes(t *testing.T) {
	t1, t2 := symbolic.NewTable(), symbolic.NewTable()
	a, b := symbolic.Intern(t1, sum()), symbolic.Intern(t2, sum())
	if a == b {
		t.Fatalf("two tables share the node %s", a.Key())
	}
	if !symbolic.Equal(a, b) {
		t.Fatalf("nodes of two tables not Equal: %s vs %s", a.Key(), b.Key())
	}
	sa, sb := symbolic.Simplify(t1, a), symbolic.Simplify(t2, b)
	if sa == sb || !symbolic.Equal(sa, sb) {
		t.Fatalf("simplified in two tables: %s (%p) vs %s (%p), want Equal distinct nodes", sa.Key(), sa, sb.Key(), sb)
	}
}

// TestNilTableUninterned: without a table, nodes are built uninterned,
// yet they compare Equal to interned ones and simplify the same way.
func TestNilTableUninterned(t *testing.T) {
	tab := symbolic.NewTable()
	a, b := symbolic.Intern(nil, sum()), symbolic.Intern(nil, sum())
	if a == b {
		t.Fatalf("a nil table interned %s", a.Key())
	}
	if !symbolic.Equal(a, b) || !symbolic.Equal(a, symbolic.Intern(tab, sum())) {
		t.Fatalf("uninterned nodes not Equal: %s", a.Key())
	}
	if got, want := symbolic.Simplify(nil, a).Key(), symbolic.Simplify(tab, sum()).Key(); got != want {
		t.Fatalf("Simplify without a table = %s, with one = %s", got, want)
	}
	if got := symbolic.MkNot(nil, symbolic.MkNot(nil, a)); symbolic.Simplify(nil, got).Key() != symbolic.Simplify(nil, a).Key() {
		t.Fatalf("!!(%s) simplified without a table to %s", a.Key(), symbolic.Simplify(nil, got).Key())
	}
}

// TestSimplifyReturnsOriginalWhenUnchanged: a node whose children
// simplify to themselves comes back as the very same node — no fresh
// argument slice, no rebuilt parent.
func TestSimplifyReturnsOriginalWhenUnchanged(t *testing.T) {
	tab := symbolic.NewTable()
	// Call arguments are leaves: nothing to simplify.
	in := symbolic.Intern(tab, &symbolic.Call{Fn: "f", Args: []symbolic.Expr{
		symbolic.Var{Name: "x"}, symbolic.Num{V: 2, IsInt: true},
	}})
	if out := symbolic.Simplify(tab, in); out != in {
		t.Fatalf("Simplify rebuilt an already-simplified call: %s → %s", in.Key(), out.Key())
	}
	// Leaves short-circuit outright.
	leaf := symbolic.Var{Name: "v"}
	if out := symbolic.Simplify(tab, leaf); out != symbolic.Expr(leaf) {
		t.Fatalf("Simplify rebuilt a leaf")
	}
}

// TestSimplifyMemoized: simplifying one node of a table twice returns
// the identical result node, including from many goroutines at once,
// as the analysis workers of one analysis do.
func TestSimplifyMemoized(t *testing.T) {
	tab := symbolic.NewTable()
	e := symbolic.Intern(tab, &symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{
		symbolic.Var{Name: "a"},
		&symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{
			symbolic.Var{Name: "b"}, symbolic.Num{V: 1, IsInt: true},
		}},
		symbolic.Num{V: 2, IsInt: true},
	}})
	const goroutines = 8
	results := make([]symbolic.Expr, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = symbolic.Simplify(tab, e)
		}()
	}
	wg.Wait()
	first := symbolic.Simplify(tab, e)
	for g, r := range results {
		if r != first {
			t.Fatalf("goroutine %d: Simplify returned a different node: %s vs %s", g, r.Key(), first.Key())
		}
	}
}
