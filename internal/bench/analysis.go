package bench

import (
	"fmt"

	"commute/internal/analysis/extent"
	"commute/internal/analysis/symbolic"
	"commute/internal/apps"
	"commute/internal/frontend/types"
)

// Analysis-phase experiments: the compiler's cold path. Execution
// benchmarks measure a warm System; these measure what it costs to
// produce one — a fresh core.Analysis per iteration over a shared
// checked program, so every effects memo, pair-test cache, and report
// is rebuilt from scratch.

// DeepExpr builds an n-level alternating sum/product/negation tree over
// a few variables — the shape the simplifier sees from long symbolic
// executions — without interning, so a fresh Simplify walks every node.
func DeepExpr(n int) symbolic.Expr {
	var e symbolic.Expr = symbolic.Var{Name: "x"}
	for i := 0; i < n; i++ {
		v := symbolic.Var{Name: string(rune('a' + i%4))}
		switch i % 3 {
		case 0:
			e = &symbolic.Nary{Op: symbolic.OpAdd, Args: []symbolic.Expr{e, v,
				symbolic.Num{V: float64(i%7 - 3), IsInt: true}}}
		case 1:
			e = &symbolic.Nary{Op: symbolic.OpMul, Args: []symbolic.Expr{v, e}}
		default:
			e = &symbolic.Neg{X: e}
		}
	}
	return e
}

// PairTestEnv is the Figure-11 fixture for the pair-test benchmark: the
// §2 graph traversal's visit operation and its symbolic environment.
type PairTestEnv struct {
	Visit *types.Method
	Env   *symbolic.Env
}

// NewPairTest loads the graph application and builds the environment
// the analysis would use to pair-test its traversal extent.
func NewPairTest() (*PairTestEnv, error) {
	sys, err := apps.Graph(64)
	if err != nil {
		return nil, err
	}
	visit := sys.Prog.MethodByFullName("graph::visit")
	traverse := sys.Prog.MethodByFullName("builder::traverse")
	if visit == nil || traverse == nil {
		return nil, fmt.Errorf("graph app is missing visit/traverse")
	}
	ec := extent.Constants(sys.Analysis.Eff, traverse)
	ext := extent.Compute(sys.Analysis.Eff, traverse, ec)
	aux := make(map[int]bool)
	for _, c := range ext.Aux {
		aux[c.ID] = true
	}
	return &PairTestEnv{Visit: visit, Env: symbolic.NewEnv(sys.Prog, ec, aux)}, nil
}

// Run executes one full Figure-11 symbolic pair test: both orders,
// canonicalization, and the equality comparison.
func (p *PairTestEnv) Run() error {
	r12, err := symbolic.ExecutePair(p.Visit, p.Visit, "1", "2", p.Env)
	if err != nil {
		return err
	}
	r21, err := symbolic.ExecutePair(p.Visit, p.Visit, "2", "1", p.Env)
	if err != nil {
		return err
	}
	c12, c21 := r12.Canonical(), r21.Canonical()
	for _, iv := range c12.IVars {
		if w := c21.IVar(iv.Key); w == nil || !symbolic.Equal(iv.V, w) {
			return fmt.Errorf("pair test diverged on %s", iv.Key)
		}
	}
	if !symbolic.EqualMultisets(c12.Invoked, c21.Invoked) {
		return fmt.Errorf("pair test invoked multisets diverged")
	}
	return nil
}
