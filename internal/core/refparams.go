package core

import (
	"commute/internal/analysis/effects"
	"commute/internal/analysis/extent"
	"commute/internal/frontend/types"
)

// checkReferenceParameters implements Figure 10 (with the fidelity
// adjustments documented in DESIGN.md):
//
//   - the analyzed method itself has no reference parameters;
//   - at every extent call site, each reference actual is a local
//     variable of primitive(-array) type of the enclosing method, so no
//     reference parameter can point into a receiver;
//   - every extent method's transitive writes target only instance
//     variables — in particular no extent method writes its reference
//     parameters, so reference parameters always hold extent constant
//     values.
func (a *Analysis) checkReferenceParameters(m *types.Method, ext *extent.Result, r *MethodReport) bool {
	if len(m.ReferenceParams()) != 0 {
		r.Reason = m.FullName() + " has reference parameters"
		return false
	}
	for _, site := range ext.Ext {
		caller := site.Caller
		mi := a.Eff.Info(caller)
		var cc *effects.CallContext
		for i := range mi.Calls {
			if mi.Calls[i].Site == site {
				cc = &mi.Calls[i]
				break
			}
		}
		if cc == nil {
			continue
		}
		for name, act := range cc.Refs {
			if act.Kind != effects.ActLocal {
				r.Reason = caller.FullName() + " passes a non-local reference actual for " +
					site.Callee.FullName() + " parameter " + name
				return false
			}
		}
		te := a.Eff.TransitiveEffects(site.Callee)
		var d effects.Desc
		if !te.Writes.All(func(w effects.Desc) bool { d = w; return w.Space == effects.DescField }) {
			r.Reason = site.Callee.FullName() + " writes non-instance-variable storage " + d.Key()
			return false
		}
	}
	return true
}
