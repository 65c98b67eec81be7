package codegen

import (
	"slices"

	"commute/internal/analysis/effects"
	"commute/internal/core"
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
)

// Accumulator replication (§6.3.4, Options.Contention). Water
// adds every force and energy contribution into one shared object, and
// every addition takes that object's lock. The paper proposes replicating
// such objects, as its explicitly parallel Water does by hand: a call of
// a pure additive accumulator on a global object runs, inside a region,
// on the executing worker's own zeroed replica of the object, and the
// region's join folds every touched replica back into the object. The
// planner decides where (replicate); the call rule answers it at the site
// (ActionReplica), and the runtimes render that answer.

// ReplicaSite is a call site replicate considered: its callee is
// Replicable and its receiver a global. Refused says why the site keeps
// its lock; empty, the site is ActionReplica.
type ReplicaSite struct {
	Site    *types.CallSite
	Global  *types.Global
	Refused string
}

// accumulates returns the receiver fields m adds into, in first-update
// order, when m is a pure additive accumulator, and nil when it is not:
//
//   - every write that is not to a local is `f += e`, `f -= e`,
//     `f = f + e` or `f = e + f`, for f an int or double field of the
//     receiver or an element of an array field of one, and an int f adds
//     only ints;
//   - the only receiver fields it reads are the sources of those updates
//     (so e never reads f);
//   - it makes no call.
//
// A replica of the receiver that starts at zero then ends up holding
// exactly what the calls added, which is what folding it back adds.
func accumulates(prog *types.Program, m *types.Method) []*types.Field {
	if m.Def == nil || m.Class == nil || len(m.CallSites) > 0 {
		return nil
	}
	var fields []*types.Field
	ok := true
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Assign:
			if id, local := x.LHS.(*ast.Ident); local && (id.Sym == ast.SymLocal || id.Sym == ast.SymParam) {
				break
			}
			f, delta, index := update(prog, x)
			if f == nil {
				ok = false
				break
			}
			if !slices.Contains(fields, f) {
				fields = append(fields, f)
			}
			// The target and the source of the update are its own; what
			// the update adds and where are read like any expression.
			if index != nil {
				ast.Inspect(index, walk)
			}
			ast.Inspect(delta, walk)
			return false
		case *ast.Ident:
			ok = ok && x.Sym != ast.SymField
		case *ast.ThisExpr:
			ok = false // this->f read outside an update, or this itself
		}
		return ok
	}
	ast.Inspect(m.Def.Body, walk)
	if !ok {
		return nil
	}
	return fields
}

// update matches x against the accumulations accumulates allows. It
// returns the written field, the added expression e, and the element's
// index (nil for a scalar field); a nil field when x is none.
func update(prog *types.Program, x *ast.Assign) (f *types.Field, delta, index ast.Expr) {
	f, index = receiverField(prog, x.LHS)
	if f == nil {
		return nil, nil, nil
	}
	switch x.Op {
	case token.PLUSEQ, token.MINUSEQ:
		delta = x.RHS
	case token.ASSIGN:
		bin, ok := x.RHS.(*ast.Binary)
		switch {
		case !ok || bin.Op != token.PLUS:
			return nil, nil, nil
		case sameLocation(prog, x.LHS, bin.X):
			delta = bin.Y
		case sameLocation(prog, x.LHS, bin.Y):
			delta = bin.X
		default:
			return nil, nil, nil
		}
	default:
		return nil, nil, nil
	}
	switch prog.TypeOf(x.LHS) {
	case types.Double:
	case types.Int:
		if prog.TypeOf(delta) != types.Int {
			return nil, nil, nil // an int field truncates each double it adds
		}
	default:
		return nil, nil, nil
	}
	return f, delta, index
}

// receiverField resolves an assignment target to the receiver field it
// writes, with the index when it writes an element of an array field;
// nil when the target is not a receiver field or an element of one.
func receiverField(prog *types.Program, lhs ast.Expr) (*types.Field, ast.Expr) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Sym == ast.SymField {
			return prog.Classes[x.FieldClass].FieldByName(x.Name), nil
		}
	case *ast.FieldAccess:
		if _, this := x.X.(*ast.ThisExpr); this {
			return prog.Classes[x.DeclClass].FieldByName(x.Name), nil
		}
	case *ast.IndexExpr:
		if f, inner := receiverField(prog, x.X); f != nil && inner == nil {
			return f, x.Index
		}
	}
	return nil, nil
}

// sameLocation reports whether src reads exactly what target writes: the
// same receiver field and, for an element, an index of the same shape.
func sameLocation(prog *types.Program, target, src ast.Expr) bool {
	tf, ti := receiverField(prog, target)
	sf, si := receiverField(prog, src)
	if tf == nil || tf != sf || (ti == nil) != (si == nil) {
		return false
	}
	return ti == nil || sameIndex(ti, si)
}

// sameIndex reports whether two index expressions are the same
// arithmetic over the same locals, parameters and literals. A shape it
// does not know never matches.
func sameIndex(a, b ast.Expr) bool {
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && (x.Sym == ast.SymLocal || x.Sym == ast.SymParam) && y.Sym == x.Sym && y.Name == x.Name
	case *ast.IntLit:
		y, ok := b.(*ast.IntLit)
		return ok && y.Value == x.Value
	case *ast.Binary:
		y, ok := b.(*ast.Binary)
		return ok && y.Op == x.Op && sameIndex(x.X, y.X) && sameIndex(x.Y, y.Y)
	}
	return false
}

// replicate gives ActionReplica to the extent sites of a region that may
// run their callee on the executing worker's replica of its receiver, and
// records every candidate (Plan.Replicas) and the fields a join folds
// (Plan.Folds). A site qualifies when
//
//  1. its callee is Replicable: a pure additive accumulator
//     (accumulates), planned with a lock;
//  2. its receiver is a global, the one object every claimant shares
//     (§6.3.4); one reached through this or a pointer keeps its lock;
//  3. nothing else in any region that reaches it touches the fields the
//     callee accumulates: no method that can run in such a region other
//     than the callee reads or writes them, by the effects analysis's
//     direct reads and writes (a reference parameter counts as every
//     field of its type), and the callee reads them through no other
//     path than its receiver;
//  4. its method is not speculative: that extent runs journaled versions
//     only, whose journals isolate the accumulation already.
//
// The region roots are those of the plan as it stands: a root whose only
// concurrency was a replicated site stops being one, and its calls from
// serial code run the serial version, which replicates nothing.
func (p *Plan) replicate(a *core.Analysis) {
	var cands []ReplicaSite
	for _, m := range p.Prog.Methods {
		mp := p.Methods[m]
		if mp == nil || !mp.Parallel || mp.Speculative {
			continue
		}
		for _, cs := range m.CallSites {
			cp := p.Methods[cs.Callee]
			id, ok := cs.Call.Recv.(*ast.Ident)
			if mp.Site[cs.ID] == ActionSpawn && cp != nil && cp.Replicable && ok && id.Sym == ast.SymGlobal {
				cands = append(cands, ReplicaSite{Site: cs, Global: p.Prog.Globals[id.Name]})
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	var roots []*types.Method
	for _, m := range p.Prog.Methods {
		if p.RegionRoot(m) {
			roots = append(roots, m)
		}
	}
	reach := make(map[*types.Method]map[*types.Method]bool, len(roots))
	for _, r := range roots {
		reach[r] = reachable(r)
	}
	p.Folds = make(map[*types.Class][]*types.Field)
	for i := range cands {
		c := &cands[i]
		fields := accumulates(p.Prog, c.Site.Callee)
		for _, r := range roots {
			if c.Refused == "" && reach[r][c.Site.Caller] {
				c.Refused = p.contention(a, c, fields, r, reach[r])
			}
		}
		if c.Refused != "" {
			continue
		}
		cl := c.Global.Class
		for _, f := range cl.Layout {
			if slices.Contains(fields, f) && !slices.Contains(p.Folds[cl], f) {
				p.Folds[cl] = append(p.Folds[cl], f)
			}
		}
	}
	// The site maps change only now: every decision above read them as
	// first written.
	for _, c := range cands {
		if c.Refused == "" {
			p.Methods[c.Site.Caller].Site[c.Site.ID] = ActionReplica
		}
	}
	for _, fs := range p.Folds {
		slices.SortFunc(fs, func(x, y *types.Field) int { return x.Slot - y.Slot })
	}
	p.Replicas = cands
}

// contention is rule 3 for candidate c in the region rooted at root,
// whose methods are in: why another access of a field the callee
// accumulates keeps the site locked, "" when there is none.
func (p *Plan) contention(a *core.Analysis, c *ReplicaSite, fields []*types.Field, root *types.Method, in map[*types.Method]bool) string {
	callee := c.Site.Callee
	for _, f := range fields {
		acc := effects.FieldDesc(f.Class, nil, f.Name)
		for _, m := range p.Prog.Methods {
			if !in[m] {
				continue
			}
			info := a.Eff.Info(m)
			for _, access := range [...]struct {
				set  *effects.Set
				verb string
			}{{info.Reads, "read"}, {info.Writes, "written"}} {
				touched := !access.set.All(func(d effects.Desc) bool {
					// The callee's own update goes through its receiver.
					return m == callee && d.ViaThis || !effects.Overlaps(d.Lift(), acc)
				})
				if touched {
					return c.Global.Name + "." + f.Name + " " + access.verb + " by " + m.FullName() + " in region " + root.FullName()
				}
			}
		}
	}
	return ""
}

// reachable returns the methods a call of root can run: root and,
// transitively, the callees of their call sites.
func reachable(root *types.Method) map[*types.Method]bool {
	in := map[*types.Method]bool{root: true}
	work := []*types.Method{root}
	for len(work) > 0 {
		m := work[len(work)-1]
		work = work[:len(work)-1]
		for _, cs := range m.CallSites {
			if !in[cs.Callee] {
				in[cs.Callee] = true
				work = append(work, cs.Callee)
			}
		}
	}
	return in
}

// regionReplicas lists, in declaration order, the globals whose replicas
// a region rooted at root may touch: the receivers of the ActionReplica
// sites of the methods it can run. Its join folds them.
func (p *Plan) regionReplicas(root *types.Method) []*types.Global {
	if len(p.Folds) == 0 {
		return nil
	}
	in := reachable(root)
	var out []*types.Global
	for _, g := range p.Prog.GlobalSeq {
		for _, c := range p.Replicas {
			if c.Refused == "" && c.Global == g && in[c.Site.Caller] && !slices.Contains(out, g) {
				out = append(out, g)
			}
		}
	}
	return out
}
