package core

import (
	"fmt"
	"sort"

	"commute/internal/analysis/symbolic"
	"commute/internal/cond"
	"commute/internal/frontend/types"
)

// pairKey names an ordered method pair in the pair-verdict memo.
type pairKey struct{ m1, m2 *types.Method }

// symbolicPair runs the symbolic-execution half of the Figure 11 test —
// two methods commute if symbolic execution of both orders produces the
// same instance-variable values and the same multiset of directly
// invoked operations — memoizing the verdict. Methods whose extents
// overlap retest the same pairs; a verdict is reused under every
// environment that answers the questions its executions asked the same
// way (see symbolic.Memo), which is most of them: a body rarely looks
// at more than a few extent constants and call sites.
func symbolicPair(memo *memo, m1, m2 *types.Method, env *symbolic.Env) PairResult {
	return memo.pairs.Get(pairKey{m1, m2}, env, func(rec *symbolic.Env) PairResult {
		return commuteSymbolic(m1, m2, rec)
	})
}

func commuteSymbolic(m1, m2 *types.Method, env *symbolic.Env) PairResult {
	pr := PairResult{M1: m1, M2: m2}
	if err := symbolic.Analyzable(m1, env); err != nil {
		pr.Reason = "unanalyzable: " + err.Error()
		return pr
	}
	if err := symbolic.Analyzable(m2, env); err != nil {
		pr.Reason = "unanalyzable: " + err.Error()
		return pr
	}
	r12, err := symbolic.ExecutePair(m1, m2, "1", "2", env)
	if err != nil {
		pr.Reason = err.Error()
		return pr
	}
	r21, err := symbolic.ExecutePair(m2, m1, "2", "1", env)
	if err != nil {
		pr.Reason = err.Error()
		return pr
	}
	c12, c21 := r12.Canonical(), r21.Canonical()

	// Compare the new values of every instance variable either order
	// touched (untouched variables keep their initial symbolic value
	// and compare equal trivially). Keys are visited in sorted order so
	// the first-difference Reason is deterministic. Mismatches do not
	// short-circuit: every differing variable contributes a residual
	// commutativity condition, and the pair's condition is their
	// conjunction (the two orders agree exactly when all of them do).
	seen := make(map[string]bool)
	var keys []string
	for k := range c12.IVars {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range c21.IVars {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var residuals []cond.Pred
	for _, k := range keys {
		v12, ok12 := c12.IVars[k]
		v21, ok21 := c21.IVars[k]
		if !ok12 || !ok21 {
			// Present in only one order: differing footprints mean a
			// statically visible asymmetry; treat as non-commuting with
			// no residual term.
			pr.Reason = fmt.Sprintf("instance variable %s touched in only one order", k)
			return pr
		}
		if !symbolic.Equal(v12, v21) {
			if pr.Reason == "" {
				pr.Reason = fmt.Sprintf("instance variable %s: %s vs %s", k, v12.Key(), v21.Key())
			}
			residuals = append(residuals, cond.Residual(env.Table(), v12, v21))
		}
	}
	if len(residuals) > 0 {
		// A conditional lowering still replays the invocation multisets
		// in a different order, so they must match unconditionally for
		// the residual to be usable.
		if symbolic.EqualMultisets(c12.Invoked, c21.Invoked) {
			pr.Pred = cond.MkAnd(residuals...)
			pr.Condition = cond.Render(pr.Pred)
		}
		return pr
	}
	if !symbolic.EqualMultisets(c12.Invoked, c21.Invoked) {
		pr.Reason = fmt.Sprintf("invoked multisets differ: %s vs %s", c12.Invoked, c21.Invoked)
		return pr
	}
	pr.Commutes = true
	return pr
}

// independent implements the §4.7 independence test on the methods'
// direct instance-variable usage: neither method writes storage the
// other accesses. Receiver-relative descriptors denote the same storage
// as their declaring-class normalization, so the ≼-based overlap test
// applies directly; methods of unrelated receiver classes that only
// touch their own receivers therefore never overlap.
func (a *Analysis) independent(m1, m2 *types.Method) bool {
	i1, i2 := a.Eff.Info(m1), a.Eff.Info(m2)
	return !i1.Writes.OverlapsSet(i2.Reads) && !i1.Writes.OverlapsSet(i2.Writes) &&
		!i2.Writes.OverlapsSet(i1.Reads)
}
