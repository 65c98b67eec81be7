package effects

import (
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
)

// depAnalysis computes the dep function for every call site of m: a
// forward taint analysis over locals that records, per call site, the
// storage read to produce the values at the site (arguments, receiver,
// current reference-actual contents) together with the control
// conditions that govern the invocation. Loops are iterated to a
// fixpoint; branches merge by union (weak updates), which is the
// conservative direction — dep sets can only grow, and a larger dep set
// only makes fewer call sites auxiliary.
//
// The result maps call-site IDs to their dep sets. It is built
// entirely within this pass and published whole through the analyzer's
// dep memo (never patched into the already-published MethodInfo), so
// concurrent readers of Info(m) are unaffected by a dep pass in
// flight.
func (a *Analyzer) depAnalysis(m *types.Method) map[int]*Set {
	deps := make(map[int]*Set)
	if m.Def == nil {
		return deps
	}
	d := &depWalker{
		resolver: resolver{a.Prog, m},
		a:        a,
		deps:     deps,
		taint:    make(map[string]*Set),
	}
	d.stmt(m.Def.Body)
	return deps
}

type depWalker struct {
	resolver
	a     *Analyzer
	deps  map[int]*Set // call-site ID → dep set (the pass's result)
	taint map[string]*Set
	path  []*Set // control-condition taints, innermost last
}

func (d *depWalker) pathTaint() *Set {
	out := NewSet()
	for _, s := range d.path {
		out.AddAll(s)
	}
	return out
}

func (d *depWalker) localTaint(name string) *Set {
	if s, ok := d.taint[name]; ok {
		return s
	}
	s := NewSet()
	d.taint[name] = s
	return s
}

// single returns the set holding just desc.
func (d *depWalker) single(desc Desc) *Set {
	return &Set{e: []*entry{d.a.in.get(desc)}}
}

// loopFix walks a loop body repeatedly until the taint state stops
// changing, capturing loop-carried dependences through locals.
// Straight-line code outside loops is walked exactly once, in program
// order, so taints from later statements never pollute earlier dep
// sets.
func (d *depWalker) loopFix(walk func()) {
	for i := 0; i < len(d.m.Locals)+2; i++ {
		before := d.taintSize()
		walk()
		if d.taintSize() == before {
			return
		}
	}
}

// taintSize measures the taint state. Taints only ever grow (every
// update is a union), so the state is unchanged exactly when its size
// is.
func (d *depWalker) taintSize() int {
	n := len(d.taint)
	for _, s := range d.taint {
		n += s.Len()
	}
	return n
}

func (d *depWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.Block:
		for _, sub := range st.Stmts {
			d.stmt(sub)
		}
	case *ast.DeclStmt:
		if st.Init != nil {
			t := d.exprTaint(st.Init)
			t.AddAll(d.pathTaint())
			d.localTaint(st.Name).AddAll(t)
		}
	case *ast.ExprStmt:
		d.exprTaint(st.X)
	case *ast.IfStmt:
		ct := d.exprTaint(st.Cond)
		d.path = append(d.path, ct)
		d.stmt(st.Then)
		if st.Else != nil {
			d.stmt(st.Else)
		}
		d.path = d.path[:len(d.path)-1]
	case *ast.ForStmt:
		if st.Init != nil {
			d.stmt(st.Init)
		}
		ct := NewSet()
		if st.Cond != nil {
			ct = d.exprTaint(st.Cond)
		}
		d.path = append(d.path, ct)
		d.loopFix(func() {
			d.stmt(st.Body)
			if st.Post != nil {
				d.stmt(st.Post)
			}
			if st.Cond != nil {
				ct.AddAll(d.exprTaint(st.Cond))
			}
		})
		d.path = d.path[:len(d.path)-1]
	case *ast.WhileStmt:
		ct := d.exprTaint(st.Cond)
		d.path = append(d.path, ct)
		d.loopFix(func() {
			d.stmt(st.Body)
			ct.AddAll(d.exprTaint(st.Cond))
		})
		d.path = d.path[:len(d.path)-1]
	case *ast.ReturnStmt:
		if st.X != nil {
			d.exprTaint(st.X)
		}
	}
}

// exprTaint returns the set of non-local storage descriptors the value
// of e may depend on, updating local taints for assignments and
// recording dep sets at call sites.
func (d *depWalker) exprTaint(e ast.Expr) *Set {
	switch x := e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.BoolLit, *ast.NullLit,
		*ast.StringLit, *ast.ThisExpr, *ast.NewExpr:
		return NewSet()
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal:
			return d.localTaint(x.Name).Clone()
		case ast.SymParam:
			p := d.m.ParamByName(x.Name)
			if p != nil && p.IsRef() {
				return d.single(Param(d.m, x.Name))
			}
			return NewSet() // value parameters carry no storage taint
		case ast.SymField:
			if _, isObj := d.prog.TypeOf(x).(types.Object); isObj {
				return NewSet()
			}
			return d.single(ThisField(d.prog.Classes[x.FieldClass], nil, x.Name))
		default:
			return NewSet()
		}
	case *ast.FieldAccess:
		out := d.exprTaint(x.X)
		if desc, kind := d.accessDesc(x); kind == accField || kind == accRefParam {
			out.add(d.a.in.get(desc))
		}
		return out
	case *ast.IndexExpr:
		out := d.exprTaint(x.X)
		out.AddAll(d.exprTaint(x.Index))
		return out
	case *ast.Unary:
		return d.exprTaint(x.X)
	case *ast.Binary:
		out := d.exprTaint(x.X)
		out.AddAll(d.exprTaint(x.Y))
		return out
	case *ast.CastExpr:
		return d.exprTaint(x.X)
	case *ast.Assign:
		rhs := d.exprTaint(x.RHS)
		rhs.AddAll(d.pathTaint())
		d.assignTaint(x.LHS, rhs, x.Op != token.ASSIGN)
		return rhs
	case *ast.CallExpr:
		return d.callTaint(x)
	}
	return NewSet()
}

// assignTaint updates the taint of an lvalue. Non-local lvalues carry
// no taint state (their reads are resolved through descriptors).
func (d *depWalker) assignTaint(lhs ast.Expr, rhs *Set, compound bool) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Sym == ast.SymLocal {
			if !compound {
				// Weak update: unions only. Strong updates would be
				// legal on straight-line code but the conservative
				// direction is harmless here.
			}
			d.localTaint(x.Name).AddAll(rhs)
		}
	case *ast.IndexExpr:
		d.assignTaint(x.X, rhs, true)
		d.exprTaint(x.Index)
	case *ast.FieldAccess:
		// Instance-variable writes do not feed local taint.
	}
}

// callTaint records the dep set for a call site and returns the taint
// of the call's value.
func (d *depWalker) callTaint(x *ast.CallExpr) *Set {
	if x.Builtin {
		out := NewSet()
		for _, arg := range x.Args {
			out.AddAll(d.exprTaint(arg))
		}
		return out
	}
	site := d.prog.CallSites[x.Site]
	dep := d.pathTaint()
	if x.Recv != nil {
		dep.AddAll(d.exprTaint(x.Recv))
	}
	var refLocals []string
	for i, arg := range x.Args {
		at := d.exprTaint(arg)
		dep.AddAll(at)
		if i < len(site.Callee.Params) && site.Callee.Params[i].IsRef() {
			if id, ok := arg.(*ast.Ident); ok && id.Sym == ast.SymLocal {
				refLocals = append(refLocals, id.Name)
			}
		}
	}

	// The callee's own reads contribute to the values it returns and
	// writes into reference actuals.
	calleeReads := NewSet()
	if site.Callee != d.m { // direct recursion: the fixpoint covers it
		te := d.a.TransitiveEffects(site.Callee)
		var cc *CallContext
		mi := d.a.Info(d.m)
		for i := range mi.Calls {
			if mi.Calls[i].Site == site {
				cc = &mi.Calls[i]
				break
			}
		}
		if cc != nil {
			b := d.a.Bind(d.m, *cc, identity(d.m, &d.a.in))
			calleeReads = b.SubstSet(te.Reads)
		} else {
			calleeReads = te.Reads.Clone()
		}
		// Reads of locals (reference actuals) resolve to those locals'
		// taints.
		resolved := NewSet()
		for _, e := range calleeReads.e {
			if e.Space == DescLocal && e.Method == d.m {
				resolved.AddAll(d.localTaint(e.Name))
			} else {
				resolved.add(e)
			}
		}
		calleeReads = resolved
	}

	// Record dep(c). Multiple syntactic evaluations (loop fixpoint)
	// accumulate.
	existing, ok := d.deps[site.ID]
	if !ok {
		existing = NewSet()
		d.deps[site.ID] = existing
	}
	existing.AddAll(dep)

	// Reference actuals now carry the callee's read taint.
	retTaint := dep.Clone()
	retTaint.AddAll(calleeReads)
	for _, name := range refLocals {
		d.localTaint(name).AddAll(retTaint)
	}
	return retTaint
}
