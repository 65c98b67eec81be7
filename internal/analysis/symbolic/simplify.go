package symbolic

import (
	"cmp"
	"hash/maphash"
	"slices"
	"strings"
)

// Simplify rewrites an expression to the canonical form used for
// isomorphism comparison: subtractions are already represented as
// additions of negations by the executor; here we fold constants,
// normalize negation, flatten associative-commutative operators into
// sorted n-ary applications, apply boolean/conditional rules, distribute
// products over (small) sums, and canonicalize array-update chains.
//
// Simplification is memoized per node in tab: because composite nodes
// are hash-consed, a subterm shared by many expressions is simplified
// once and every later Simplify of the same node is a map hit. The memo
// key is node identity, so uninterned composite literals still simplify
// correctly (they just memoize under their own pointer). With a nil tab
// the result is uninterned and nothing is memoized. A node whose
// children all simplify to themselves is returned as-is rather than
// rebuilt.
func Simplify(tab *Table, e Expr) Expr { return tab.simplify(e) }

func (tab *Table) simplify(e Expr) Expr {
	switch e.(type) {
	case nil, Num, Bool, Null, Extent, Var:
		return e
	}
	if tab == nil {
		return tab.simplifyNode(e)
	}
	sh := tab.shard(maphash.String(tab.seed, e.Key()))
	sh.mu.Lock()
	out, ok := sh.simplified[e]
	sh.mu.Unlock()
	if ok {
		return out
	}
	out = tab.simplifyNode(e)
	sh.mu.Lock()
	sh.simplified[e] = out
	sh.mu.Unlock()
	return out
}

func (tab *Table) simplifyNode(e Expr) Expr {
	switch x := e.(type) {
	case *Neg:
		return tab.simplifyNeg(tab.simplify(x.X))

	case *Not:
		return tab.simplifyNot(tab.simplify(x.X))

	case *Nary:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = tab.simplify(a)
		}
		return tab.simplifyNary(x.Op, args)

	case *Bin:
		return tab.simplifyBin(x.Op, tab.simplify(x.L), tab.simplify(x.R))

	case *Call:
		changed := false
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = tab.simplify(a)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return x
		}
		return tab.mkCall(x.Fn, args)

	case *Cond:
		return tab.simplifyCond(tab.simplify(x.C), tab.simplify(x.T), tab.simplify(x.F))

	case *ArrUpd:
		return tab.simplifyArrUpd(tab.simplify(x.Arr), x.Op, tab.simplify(x.Operand))

	case *ArrFill:
		if el := tab.simplify(x.Elem); el != x.Elem {
			return tab.mkArrFill(el)
		}
		return x

	case *ArrStore:
		return tab.simplifyArrStore(tab.simplify(x.Arr), tab.simplify(x.Idx), tab.simplify(x.Val))

	case *ArrSel:
		return tab.simplifyArrSel(tab.simplify(x.Arr), tab.simplify(x.Idx))

	case *AccumAt:
		return tab.canonAccum(tab.simplify(x.Arr), x.Op, tab.simplify(x.Idx), tab.simplify(x.Delta))
	}
	return e
}

func (tab *Table) simplifyNeg(x Expr) Expr {
	switch v := x.(type) {
	case Num:
		return Num{V: -v.V, IsInt: v.IsInt}
	case *Neg:
		return v.X
	case *Nary:
		if v.Op == OpAdd {
			args := make([]Expr, len(v.Args))
			for i, a := range v.Args {
				args[i] = tab.simplifyNeg(a)
			}
			return tab.simplifyNary(OpAdd, args)
		}
		if v.Op == OpMul {
			// Fold the sign into the constant factor if present.
			args := append([]Expr{Num{V: -1, IsInt: true}}, v.Args...)
			return tab.simplifyNary(OpMul, args)
		}
	}
	return tab.mkNeg(x)
}

func (tab *Table) simplifyNot(x Expr) Expr {
	switch v := x.(type) {
	case Bool:
		return Bool{V: !v.V}
	case *Not:
		return v.X
	case *Bin:
		// Flip comparisons so guards canonicalize.
		switch v.Op {
		case OpLt:
			return tab.simplifyBin(OpGe, v.L, v.R)
		case OpLe:
			return tab.simplifyBin(OpGt, v.L, v.R)
		case OpGt:
			return tab.simplifyBin(OpLe, v.L, v.R)
		case OpGe:
			return tab.simplifyBin(OpLt, v.L, v.R)
		case OpEq:
			return tab.simplifyBin(OpNe, v.L, v.R)
		case OpNe:
			return tab.simplifyBin(OpEq, v.L, v.R)
		}
	}
	return tab.mkNot(x)
}

// simplifyNary assumes args are already simplified.
func (tab *Table) simplifyNary(op Op, args []Expr) Expr {
	// Flatten nested applications of the same operator.
	flat := make([]Expr, 0, len(args))
	for _, a := range args {
		if n, ok := a.(*Nary); ok && n.Op == op {
			flat = append(flat, n.Args...)
		} else {
			flat = append(flat, a)
		}
	}

	switch op {
	case OpAdd, OpMul:
		return tab.simplifyArith(op, flat)
	case OpAnd, OpOr:
		return tab.simplifyBool(op, flat)
	}
	return tab.mkNary(op, flat)
}

func (tab *Table) simplifyArith(op Op, flat []Expr) Expr {
	// Distribute multiplication over small sums.
	if op == OpMul {
		for i, a := range flat {
			if add, ok := a.(*Nary); ok && add.Op == OpAdd && len(flat) <= 8 && len(add.Args) <= 8 {
				rest := make([]Expr, 0, len(flat)-1)
				rest = append(rest, flat[:i]...)
				rest = append(rest, flat[i+1:]...)
				terms := make([]Expr, len(add.Args))
				for j, t := range add.Args {
					terms[j] = tab.simplifyNary(OpMul, append([]Expr{t}, rest...))
				}
				return tab.simplifyNary(OpAdd, terms)
			}
		}
	}

	// Fold numeric constants.
	acc := 1.0
	isInt := true
	if op == OpAdd {
		acc = 0.0
	}
	hasConst := false
	rest := make([]Expr, 0, len(flat))
	for _, a := range flat {
		if n, ok := a.(Num); ok {
			hasConst = true
			isInt = isInt && n.IsInt
			if op == OpAdd {
				acc += n.V
			} else {
				acc *= n.V
			}
			continue
		}
		rest = append(rest, a)
	}
	if op == OpMul && hasConst && acc == 0 {
		// The paper's simplifier ignores floating-point anomalies
		// (footnote 1); 0·x ⇒ 0.
		return Num{V: 0, IsInt: isInt}
	}
	identity := (op == OpAdd && acc == 0) || (op == OpMul && acc == 1)
	if hasConst && !identity {
		rest = append(rest, Num{V: acc, IsInt: isInt})
	}
	if len(rest) == 0 {
		return Num{V: acc, IsInt: isInt}
	}
	if len(rest) == 1 {
		return rest[0]
	}
	sortExprs(rest)
	return tab.mkNary(op, rest)
}

func (tab *Table) simplifyBool(op Op, flat []Expr) Expr {
	// Identity/annihilator constants, idempotence, complements.
	seen := make(map[string]Expr)
	rest := make([]Expr, 0, len(flat))
	for _, a := range flat {
		if b, ok := a.(Bool); ok {
			if op == OpAnd && !b.V {
				return Bool{V: false}
			}
			if op == OpOr && b.V {
				return Bool{V: true}
			}
			continue // identity element
		}
		k := a.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = a
		rest = append(rest, a)
	}
	// Complement detection: x together with !x.
	for _, a := range rest {
		neg := tab.simplifyNot(a)
		if _, ok := seen[neg.Key()]; ok {
			if op == OpAnd {
				return Bool{V: false}
			}
			return Bool{V: true}
		}
	}
	if len(rest) == 0 {
		return Bool{V: op == OpAnd}
	}
	if len(rest) == 1 {
		return rest[0]
	}
	sortExprs(rest)
	return tab.mkNary(op, rest)
}

func (tab *Table) simplifyBin(op Op, l, r Expr) Expr {
	ln, lok := l.(Num)
	rn, rok := r.(Num)
	if lok && rok {
		switch op {
		case OpDiv:
			if rn.V != 0 {
				if ln.IsInt && rn.IsInt {
					return Num{V: float64(int64(ln.V) / int64(rn.V)), IsInt: true}
				}
				return Num{V: ln.V / rn.V}
			}
		case OpMod:
			if rn.V != 0 && ln.IsInt && rn.IsInt {
				return Num{V: float64(int64(ln.V) % int64(rn.V)), IsInt: true}
			}
		case OpLt:
			return Bool{V: ln.V < rn.V}
		case OpLe:
			return Bool{V: ln.V <= rn.V}
		case OpGt:
			return Bool{V: ln.V > rn.V}
		case OpGe:
			return Bool{V: ln.V >= rn.V}
		case OpEq:
			return Bool{V: ln.V == rn.V}
		case OpNe:
			return Bool{V: ln.V != rn.V}
		}
	}
	// Canonicalize comparison direction: a > b ⇒ b < a, a >= b ⇒ b <= a.
	switch op {
	case OpGt:
		return tab.binOrSame(OpLt, r, l)
	case OpGe:
		return tab.binOrSame(OpLe, r, l)
	case OpLt, OpLe:
		return tab.binOrSame(op, l, r)
	case OpEq, OpNe:
		if l.Key() == r.Key() {
			return Bool{V: op == OpEq}
		}
		if r.Key() < l.Key() {
			l, r = r, l
		}
	case OpDiv:
		if rn, ok := r.(Num); ok && rn.V == 1 {
			return l
		}
	}
	return tab.mkBin(op, l, r)
}

// binOrSame folds reflexive comparisons: x < x ⇒ false, x <= x ⇒ true.
func (tab *Table) binOrSame(op Op, l, r Expr) Expr {
	if l.Key() == r.Key() {
		return Bool{V: op == OpLe}
	}
	return tab.mkBin(op, l, r)
}

// isBoolish reports whether an expression is boolean-valued, enabling
// the Cond→And/Or rewrites.
func isBoolish(e Expr) bool {
	switch x := e.(type) {
	case Bool, *Not:
		return true
	case *Nary:
		return x.Op == OpAnd || x.Op == OpOr
	case *Bin:
		switch x.Op {
		case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
			return true
		}
	}
	return false
}

func (tab *Table) simplifyCond(c, t, f Expr) Expr {
	if b, ok := c.(Bool); ok {
		if b.V {
			return t
		}
		return f
	}
	if t.Key() == f.Key() {
		return t
	}
	if isBoolish(t) || isBoolish(f) {
		tb, tok := t.(Bool)
		fb, fok := f.(Bool)
		switch {
		case tok && tb.V: // c ? true : f  ⇒  c || f
			return tab.simplifyNary(OpOr, []Expr{c, f})
		case tok && !tb.V: // c ? false : f  ⇒  !c && f
			return tab.simplifyNary(OpAnd, []Expr{tab.simplifyNot(c), f})
		case fok && fb.V: // c ? t : true  ⇒  !c || t
			return tab.simplifyNary(OpOr, []Expr{tab.simplifyNot(c), t})
		case fok && !fb.V: // c ? t : false  ⇒  c && t
			return tab.simplifyNary(OpAnd, []Expr{c, t})
		}
	}
	// Factor common additive terms out of the branches:
	// cond(c, x+a, x+b) ⇒ x + cond(c, a, b). This canonicalizes the
	// accumulate-under-a-guard pattern that guarded recursion (the
	// §7.2 loop replacement) produces, so that
	// cond(c1,t+v1,t)+... sorts into t + cond(c1,v1,0) + cond(c2,v2,0).
	if factored, ok := tab.factorCondAdd(c, t, f); ok {
		return factored
	}
	// Canonicalize the branch order using the condition's negation.
	if n, ok := c.(*Not); ok {
		return tab.mkCond(n.X, f, t)
	}
	return tab.mkCond(c, t, f)
}

// addTerms flattens an expression into additive terms.
func addTerms(e Expr) []Expr {
	if n, ok := e.(*Nary); ok && n.Op == OpAdd {
		return n.Args
	}
	return []Expr{e}
}

// factorCondAdd extracts the common additive terms of a conditional's
// branches.
func (tab *Table) factorCondAdd(c, t, f Expr) (Expr, bool) {
	tt := addTerms(t)
	ft := addTerms(f)
	if len(tt) == 1 && len(ft) == 1 {
		return nil, false
	}
	// Multiset intersection by canonical key.
	counts := make(map[string]int, len(ft))
	for _, x := range ft {
		counts[x.Key()]++
	}
	var common []Expr
	restT := make([]Expr, 0, len(tt))
	for _, x := range tt {
		if counts[x.Key()] > 0 {
			counts[x.Key()]--
			common = append(common, x)
			continue
		}
		restT = append(restT, x)
	}
	if len(common) == 0 {
		return nil, false
	}
	restF := make([]Expr, 0, len(ft))
	counts2 := make(map[string]int, len(common))
	for _, x := range common {
		counts2[x.Key()]++
	}
	for _, x := range ft {
		if counts2[x.Key()] > 0 {
			counts2[x.Key()]--
			continue
		}
		restF = append(restF, x)
	}
	zero := Expr(Num{V: 0, IsInt: true})
	var newT, newF Expr
	switch len(restT) {
	case 0:
		newT = zero
	case 1:
		newT = restT[0]
	default:
		newT = tab.simplifyNary(OpAdd, restT)
	}
	switch len(restF) {
	case 0:
		newF = zero
	case 1:
		newF = restF[0]
	default:
		newF = tab.simplifyNary(OpAdd, restF)
	}
	inner := tab.simplifyCond(c, newT, newF)
	return tab.simplifyNary(OpAdd, append(common, inner)), true
}

// simplifyArrUpd canonicalizes chains of elementwise updates with the
// same commutative operator by sorting the operands.
func (tab *Table) simplifyArrUpd(arr Expr, op Op, operand Expr) Expr {
	if !op.Commutative() {
		return tab.mkArrUpd(arr, op, operand)
	}
	// Collect the chain.
	operands := []Expr{operand}
	base := arr
	for {
		u, ok := base.(*ArrUpd)
		if !ok || u.Op != op {
			break
		}
		operands = append(operands, u.Operand)
		base = u.Arr
	}
	sortExprs(operands)
	out := base
	for i := len(operands) - 1; i >= 0; i-- {
		out = tab.mkArrUpd(out, op, operands[i])
	}
	return out
}

// simplifyArrStore canonicalizes store chains: accumulation stores
// a[i] = a[i] ⊕ d rewrite to AccumAt (which commutes); adjacent plain
// stores to distinct constant indices are ordered by index; a store
// shadowed by a later store to the same index is dropped.
func (tab *Table) simplifyArrStore(arr, idx, val Expr) Expr {
	if acc, ok := tab.recognizeAccum(arr, idx, val); ok {
		return acc
	}
	if inner, ok := arr.(*ArrStore); ok {
		ii, iok := inner.Idx.(Num)
		oi, ook := idx.(Num)
		if iok && ook {
			if ii.V == oi.V {
				// The outer store shadows the inner one.
				return tab.simplifyArrStore(inner.Arr, idx, val)
			}
			if oi.V < ii.V {
				// Reorder: stores to distinct indices commute.
				return tab.mkArrStore(
					tab.simplifyArrStore(inner.Arr, idx, val),
					inner.Idx,
					inner.Val,
				)
			}
		}
	}
	return tab.mkArrStore(arr, idx, val)
}

func (tab *Table) simplifyArrSel(arr, idx Expr) Expr {
	switch a := arr.(type) {
	case *ArrFill:
		return a.Elem
	case *ArrStore:
		si, sok := a.Idx.(Num)
		qi, qok := idx.(Num)
		if sok && qok {
			if si.V == qi.V {
				return a.Val
			}
			return tab.simplifyArrSel(a.Arr, idx)
		}
		if a.Idx.Key() == idx.Key() {
			return a.Val
		}
	case *AccumAt:
		if a.Idx.Key() == idx.Key() {
			return tab.simplifyNary(a.Op, []Expr{tab.simplifyArrSel(a.Arr, idx), a.Delta})
		}
		ai, aok := a.Idx.(Num)
		qi, qok := idx.(Num)
		if aok && qok && ai.V != qi.V {
			return tab.simplifyArrSel(a.Arr, idx)
		}
	}
	return tab.mkArrSel(arr, idx)
}

// recognizeAccum matches a store of the form a[i] = a[i] ⊕ d (with the
// select on the same pre-store array value and index) and yields the
// commuting, canonically ordered AccumAt form. Because ArrSel folds
// through AccumAt chains (sel(accum(a,i,δ), i) ⇒ sel(a,i)+δ), the
// select may also reference the chain's base array; in that additive
// case the store overwrites index i with base[i]+D, which is the
// accumulation of D minus the chain's existing deltas at i.
func (tab *Table) recognizeAccum(arr, idx, val Expr) (Expr, bool) {
	var op Op
	var args []Expr
	switch v := val.(type) {
	case *Nary:
		if !v.Op.Commutative() || (v.Op != OpAdd && v.Op != OpMul) {
			return nil, false
		}
		op = v.Op
		args = v.Args
	case *ArrSel:
		// A degenerate accumulation (delta folded to the identity):
		// a[i] = a[i] + 0.
		op = OpAdd
		args = []Expr{v}
	default:
		return nil, false
	}
	base, entries := accumChain(arr)
	selAt := -1
	viaBase := false
	for i, a := range args {
		sel, isSel := a.(*ArrSel)
		if !isSel || sel.Idx.Key() != idx.Key() {
			continue
		}
		if sel.Arr.Key() == arr.Key() {
			selAt = i
			break
		}
		if op == OpAdd && sel.Arr.Key() == base.Key() {
			selAt = i
			viaBase = true
			break
		}
	}
	if selAt < 0 {
		return nil, false
	}
	rest := make([]Expr, 0, len(args)+4)
	rest = append(rest, args[:selAt]...)
	rest = append(rest, args[selAt+1:]...)
	if viaBase {
		// a[i] = base[i] + D over a chain with deltas δ at i:
		// equivalently a[i] = a[i] + (D − Σδ). Only additive chains with
		// uniformly additive entries support this.
		for _, e := range entries {
			if e.op != OpAdd {
				return nil, false
			}
			if e.idx.Key() == idx.Key() {
				rest = append(rest, tab.mkNeg(e.delta))
			}
		}
	}
	var delta Expr
	if len(rest) == 1 {
		delta = tab.simplify(rest[0])
	} else {
		delta = tab.simplify(tab.mkNary(op, rest))
	}
	return tab.canonAccum(arr, op, idx, delta), true
}

// accumEntry is one accumulation step of a chain.
type accumEntry struct {
	op    Op
	idx   Expr
	delta Expr
}

// accumChain decomposes nested AccumAt applications into the base array
// and the entry list (outermost first).
func accumChain(arr Expr) (Expr, []accumEntry) {
	var entries []accumEntry
	base := arr
	for {
		a, ok := base.(*AccumAt)
		if !ok {
			return base, entries
		}
		entries = append(entries, accumEntry{op: a.Op, idx: a.Idx, delta: a.Delta})
		base = a.Arr
	}
}

// canonAccum sorts chains of same-operator accumulations by
// (index, delta) canonical key — accumulations into array elements
// commute regardless of index equality.
func (tab *Table) canonAccum(arr Expr, op Op, idx, delta Expr) Expr {
	type entry struct{ idx, delta Expr }
	entries := []entry{{idx, delta}}
	base := arr
	for {
		inner, ok := base.(*AccumAt)
		if !ok || inner.Op != op {
			break
		}
		entries = append(entries, entry{inner.Idx, inner.Delta})
		base = inner.Arr
	}
	slices.SortFunc(entries, func(a, b entry) int {
		return cmp.Or(strings.Compare(a.idx.Key(), b.idx.Key()), strings.Compare(a.delta.Key(), b.delta.Key()))
	})
	out := base
	for i := len(entries) - 1; i >= 0; i-- {
		out = tab.mkAccumAt(out, op, entries[i].idx, entries[i].delta)
	}
	return out
}

func sortExprs(xs []Expr) {
	slices.SortFunc(xs, func(a, b Expr) int { return strings.Compare(a.Key(), b.Key()) })
}

// SimplifyMX simplifies an invocation expression's components in tab,
// reusing unchanged pieces.
func SimplifyMX(tab *Table, m MX) MX {
	out := MX{
		Guard:  tab.simplify(m.Guard),
		Recv:   tab.simplify(m.Recv),
		Method: m.Method,
		Loop:   m.Loop,
	}
	if m.Loop != nil {
		out.Loop = &LoopSpec{
			Var:  m.Loop.Var,
			From: tab.simplify(m.Loop.From),
			To:   tab.simplify(m.Loop.To),
			Step: tab.simplify(m.Loop.Step),
		}
	}
	changed := false
	args := make([]Expr, len(m.Args))
	for i, a := range m.Args {
		args[i] = tab.simplify(a)
		if args[i] != a {
			changed = true
		}
	}
	if changed {
		out.Args = args
	} else {
		out.Args = m.Args
	}
	return out
}

// SimplifyMultiset simplifies every invocation of the multiset in tab.
func SimplifyMultiset(tab *Table, ms Multiset) Multiset {
	out := make(Multiset, 0, len(ms))
	for _, m := range ms {
		sm := SimplifyMX(tab, m)
		if sm.Guard != nil && sm.Guard.Key() == "false" {
			continue
		}
		out = append(out, sm)
	}
	return out
}
