package effects

import (
	"commute/internal/frontend/types"
)

// Analyzer caches the per-method local analyses and the transitive
// closures over the call graph for one checked program.
//
// Concurrency contract: an Analyzer is safe for concurrent use by any
// number of goroutines. Each memo (local info, transitive effects,
// dep sets, purity flags) publishes per method through a sync.Once
// cell, so every result is computed exactly once and is immutable
// after publication — callers must treat returned *MethodInfo, *TE,
// *Set and dep maps as read-only (clone before mutating, as the
// binding substitutions already do). The memo dependency graph
// (dep → transitive effects → local info) is acyclic, so concurrent
// first computations cannot deadlock.
type Analyzer struct {
	Prog *types.Program

	in      interner
	info    memoTable[*MethodInfo]
	te      memoTable[*TE]
	deps    memoTable[map[int]*Set] // call-site ID → dep set, per caller
	creates memoTable[bool]
	io      memoTable[bool]
}

// TE is a transitive effects result: the storage the computation rooted
// at a method may read and write (the paper's transitiveEffects, Fig 5).
// Local variables have been subtracted; remaining parameter descriptors
// belong to the root method.
type TE struct {
	Reads  *Set
	Writes *Set
}

// NewAnalyzer returns an analyzer for prog.
func NewAnalyzer(prog *types.Program) *Analyzer {
	return &Analyzer{Prog: prog}
}

// Info returns the cached local analysis of m. The result is computed
// once and immutable; see the Analyzer concurrency contract.
func (a *Analyzer) Info(m *types.Method) *MethodInfo {
	return a.info.get(m, func() *MethodInfo { return a.localAnalysis(m) })
}

// TransitiveEffects computes the paper's transitiveEffects(m): an
// abstract interpretation over (method, binding) pairs starting from
// the identity binding, accumulating substituted read and write sets.
// Local-variable descriptors are subtracted from the final result.
func (a *Analyzer) TransitiveEffects(m *types.Method) *TE {
	return a.te.get(m, func() *TE { return a.transitiveEffects(m) })
}

func (a *Analyzer) transitiveEffects(m *types.Method) *TE {
	rd, wr := NewSet(), NewSet()

	type item struct {
		m *types.Method
		b Binding
	}
	type visit struct {
		m *types.Method
		b string
	}
	work := []item{{m: m, b: identity(m, &a.in)}}
	visited := map[visit]bool{{m, work[0].b.Key()}: true}

	var scratch []*entry
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		mi := a.Info(it.m)
		scratch = rd.addSubst(it.b, mi.Reads, scratch)
		scratch = wr.addSubst(it.b, mi.Writes, scratch)
		for _, cc := range mi.Calls {
			next := item{m: cc.Site.Callee, b: a.Bind(it.m, cc, it.b)}
			k := visit{next.m, next.b.Key()}
			if !visited[k] {
				visited[k] = true
				work = append(work, next)
			}
		}
	}

	// rd and wr are this call's own until published.
	notLocal := func(e *entry) bool { return e.Space != DescLocal }
	rd.keep(notLocal)
	wr.keep(notLocal)
	return &TE{Reads: rd, Writes: wr}
}

// MayCreateObject reports whether the computation rooted at m may
// allocate a new object.
func (a *Analyzer) MayCreateObject(m *types.Method) bool {
	return a.transitiveFlag(m, &a.creates, func(mi *MethodInfo) bool { return mi.CreatesObject })
}

// MayPerformIO reports whether the computation rooted at m may perform
// input or output.
func (a *Analyzer) MayPerformIO(m *types.Method) bool {
	return a.transitiveFlag(m, &a.io, func(mi *MethodInfo) bool { return mi.PerformsIO })
}

func (a *Analyzer) transitiveFlag(m *types.Method, cache *memoTable[bool], local func(*MethodInfo) bool) bool {
	return cache.get(m, func() bool {
		visited := make(map[*types.Method]bool)
		var visit func(x *types.Method) bool
		visit = func(x *types.Method) bool {
			if visited[x] {
				return false
			}
			visited[x] = true
			mi := a.Info(x)
			if local(mi) {
				return true
			}
			for _, cc := range mi.Calls {
				if visit(cc.Site.Callee) {
					return true
				}
			}
			return false
		}
		return visit(m)
	})
}

// Dep returns the dep set of a call site (§4.2): the storage the caller
// reads to compute the values flowing into the call — the receiver, the
// arguments (including the current contents of reference actuals), and
// the control conditions governing whether the call executes. The
// result is in the caller's frame (receiver-relative descriptors have
// not been substituted).
func (a *Analyzer) Dep(site *types.CallSite) *Set {
	m := site.Caller
	if m == nil {
		return NewSet()
	}
	deps := a.deps.get(m, func() map[int]*Set { return a.depAnalysis(m) })
	if d, ok := deps[site.ID]; ok {
		return d
	}
	return NewSet()
}
