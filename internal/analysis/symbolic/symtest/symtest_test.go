package symtest_test

import (
	"testing"

	"commute/internal/analysis/symbolic"
	"commute/internal/analysis/symbolic/symtest"
)

// state is a result shaped like an executor's: keyed expressions.
type state struct {
	Key string
	V   symbolic.Expr
}

func sum(n symbolic.Num) symbolic.Expr {
	return &symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{symbolic.Var{Name: "x"}, n}}
}

// TestDeepEqualSkipsOnlyTheNodeHeader: results built in two tables,
// one of them rendered, are equal; a different operand, leaf kind or
// field is not.
func TestDeepEqualSkipsOnlyTheNodeHeader(t *testing.T) {
	one := symbolic.Num{V: 1, IsInt: true}
	t1, t2 := symbolic.NewTable(), symbolic.NewTable()
	symbolic.Intern(t2, sum(symbolic.Num{V: 7, IsInt: true})) // t2's identities start later
	a := []state{{"s", symbolic.Intern(t1, sum(one))}}
	b := []state{{"s", symbolic.Intern(t2, sum(one))}}
	_ = a[0].V.Key()
	if !symtest.DeepEqual(a, b) {
		t.Fatalf("%s from two tables differs", a[0].V.Key())
	}
	for _, c := range [][]state{
		{{"s", symbolic.Intern(t2, sum(symbolic.Num{V: 2, IsInt: true}))}},
		{{"s", symbolic.Intern(t2, sum(symbolic.Num{V: 1}))}},
		{{"t", symbolic.Intern(t2, sum(one))}},
		{{"s", symbolic.Intern(t2, sum(one))}, {"s", one}},
	} {
		if symtest.DeepEqual(a, c) {
			t.Errorf("%v equals %v", a, c)
		}
	}
}
