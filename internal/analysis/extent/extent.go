// Package extent implements the extent-constant-variables computation
// (Fig. 5) and the extent / auxiliary-call-site computation (Fig. 8) of
// Rinard & Diniz 1996.
package extent

import (
	"cmp"
	"slices"

	"commute/internal/analysis/effects"
	"commute/internal/frontend/types"
)

// Constants computes the set of extent constant variables of the
// computation rooted at m (the paper's extentConstantVariables): the
// storage the computation reads but never writes, after lifting locals
// and parameters to their primitive types and filtering reads that
// overlap writes.
func Constants(a *effects.Analyzer, m *types.Method) *effects.Set {
	te := a.TransitiveEffects(m)
	wr := te.Writes.Lift()
	return te.Reads.Lift().Filter(func(s effects.Desc) bool { return !wr.OverlapsDesc(s) })
}

// Result is the outcome of the extent computation for one method.
type Result struct {
	Method *types.Method
	EC     *effects.Set
	// Ext and Aux partition the call sites reachable from Method (stopping
	// at auxiliary sites), in discovery order.
	Ext []*types.CallSite
	Aux []*types.CallSite
	// Methods is {m} ∪ the callees of the extent call sites, deduplicated
	// and ordered by method ID — the paper's ms set.
	Methods []*types.Method
}

// IsAux reports whether the call site was classified auxiliary.
func (r *Result) IsAux(site *types.CallSite) bool {
	for _, c := range r.Aux {
		if c == site {
			return true
		}
	}
	return false
}

// Compute runs the extent algorithm of Fig. 8 for m using the extent
// constant set ec. A call site is auxiliary when the invoked
// computation writes only caller locals, reads only extent constants
// (or caller locals / reference parameters, which hold extent constant
// values by the reference-parameter constraints), and the values
// flowing into the site depend only on extent constants.
func Compute(a *effects.Analyzer, m *types.Method, ec *effects.Set) *Result {
	res := &Result{Method: m, EC: ec}
	visited := make(map[*types.Method]bool)
	methodSet := map[*types.Method]bool{m: true}

	isLocal := func(d effects.Desc) bool { return d.Space == effects.DescLocal }
	// constant: caller locals, and reference parameters, which hold
	// extent constant values by the reference-parameter constraints;
	// anything else must be covered by ec.
	constant := func(d effects.Desc) bool {
		return d.Space == effects.DescLocal || d.Space == effects.DescParam || ec.Covers(d)
	}

	var rec func(x *types.Method)
	rec = func(x *types.Method) {
		if visited[x] {
			return
		}
		visited[x] = true
		mi := a.Info(x)
		ident := effects.Identity(x)
		for i := range mi.Calls {
			cc := &mi.Calls[i]
			callee := cc.Site.Callee
			te := a.TransitiveEffects(callee)
			b := a.Bind(x, *cc, ident)
			if b.SubstSet(te.Writes).All(isLocal) && b.SubstSet(te.Reads).All(constant) &&
				ident.SubstSet(a.Dep(cc.Site)).All(constant) {
				res.Aux = append(res.Aux, cc.Site)
				continue
			}
			res.Ext = append(res.Ext, cc.Site)
			methodSet[callee] = true
			rec(callee)
		}
	}
	rec(m)

	for mm := range methodSet {
		res.Methods = append(res.Methods, mm)
	}
	slices.SortFunc(res.Methods, func(a, b *types.Method) int { return cmp.Compare(a.ID, b.ID) })
	return res
}
