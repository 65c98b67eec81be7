// Package cond implements conditional commutativity: when the
// Figure-11 symbolic pair test of Rinard & Diniz 1996 fails on an
// instance-variable mismatch, the two final values usually differ only
// under some condition the symbolic engine can already see. Following
// Bansal/Koskinen/Tripp ("Automatic Generation of Precise and Useful
// Commutativity Conditions") this package synthesizes that residual
// condition as a structured predicate, weakens it to the fragment a
// runtime can evaluate at region entry (literals and extent-constant
// fields of global objects), type-checks the weakened guard once against
// the program (Check), and renders the checked guard as a closure
// (interpreter runtime) or a Go expression (native backend). Predicate
// true → run the parallel region; false → take the existing serial path.
//
// The package depends only on internal/analysis/symbolic; core,
// codegen, rt and the server layers all build on it.
package cond

import (
	"sort"
	"strings"

	"commute/internal/analysis/symbolic"
)

// Pred is a residual commutativity predicate. The IR is positive:
// conjunction and disjunction only, with all negation pushed into the
// atoms as symbolic.Not. That makes weakening trivially sound —
// replacing any atom with False can only shrink the set of states the
// predicate accepts.
type Pred interface {
	// Key returns the canonical rendering, used for deduplication,
	// reports, and cross-process comparison.
	Key() string
	pred()
}

// True is the always-true predicate (the pair commutes unconditionally).
type True struct{}

// False is the always-false predicate (no usable residual condition).
type False struct{}

// Atom is a boolean-valued symbolic expression.
type Atom struct{ E symbolic.Expr }

// And is a conjunction of predicates.
type And struct{ Ps []Pred }

// Or is a disjunction of predicates.
type Or struct{ Ps []Pred }

func (True) pred()  {}
func (False) pred() {}
func (Atom) pred()  {}
func (*And) pred()  {}
func (*Or) pred()   {}

func (True) Key() string   { return "true" }
func (False) Key() string  { return "false" }
func (a Atom) Key() string { return a.E.Key() }

func joinKeys(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Key()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func (a *And) Key() string { return joinKeys(a.Ps, " ∧ ") }
func (o *Or) Key() string  { return joinKeys(o.Ps, " ∨ ") }

// Render returns the human-readable form of p (its canonical key), or
// "" for a nil predicate.
func Render(p Pred) string {
	if p == nil {
		return ""
	}
	return p.Key()
}

// MkAtom wraps a boolean symbolic expression as a predicate, folding
// literal Bool expressions into True/False.
func MkAtom(e symbolic.Expr) Pred {
	if b, ok := e.(symbolic.Bool); ok {
		if b.V {
			return True{}
		}
		return False{}
	}
	return Atom{E: e}
}

// MkAnd builds the conjunction of ps: nested Ands flatten, True drops,
// False dominates, duplicates (by key) collapse. Order is preserved.
func MkAnd(ps ...Pred) Pred {
	var flat []Pred
	seen := map[string]bool{}
	for _, p := range ps {
		switch x := p.(type) {
		case nil, True:
			continue
		case False:
			return False{}
		case *And:
			for _, q := range x.Ps {
				if k := q.Key(); !seen[k] {
					seen[k] = true
					flat = append(flat, q)
				}
			}
		default:
			if k := p.Key(); !seen[k] {
				seen[k] = true
				flat = append(flat, p)
			}
		}
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	}
	return &And{Ps: flat}
}

// MkOr builds the disjunction of ps: nested Ors flatten, False drops,
// True dominates, duplicates (by key) collapse. Order is preserved.
func MkOr(ps ...Pred) Pred {
	var flat []Pred
	seen := map[string]bool{}
	for _, p := range ps {
		switch x := p.(type) {
		case nil, False:
			continue
		case True:
			return True{}
		case *Or:
			for _, q := range x.Ps {
				if k := q.Key(); !seen[k] {
					seen[k] = true
					flat = append(flat, q)
				}
			}
		default:
			if k := p.Key(); !seen[k] {
				seen[k] = true
				flat = append(flat, p)
			}
		}
	}
	switch len(flat) {
	case 0:
		return False{}
	case 1:
		return flat[0]
	}
	return &Or{Ps: flat}
}

// ---------------------------------------------------------------------
// Synthesis

// maxCaseConds caps the number of distinct embedded conditions the
// case-split enumerates (2^k truth assignments). Beyond the cap the
// residual degrades to a single equality atom over the raw values.
const maxCaseConds = 3

// Residual synthesizes the predicate under which the two final
// symbolic values of an instance variable agree. The simplifier
// canonicalizes conditional updates aggressively (e.g. it factors
// cond(c, x+a, x+b) into x + cond(c, a, b)), so instead of matching
// Cond structure the synthesis case-splits: it collects the distinct
// conditions embedded anywhere in either value, and for each truth
// assignment substitutes the conditions with Bool literals and
// re-simplifies. Assignments under which both sides collapse to equal
// expressions contribute their assumption conjunction; the rest
// contribute the assumption plus the residual equality of the
// specialized values. The result is the disjunction over all
// assignments — exactly the states in which executing the two
// operations in either order leaves this instance variable identical.
// The expressions it builds are interned in tab, the table of the
// execution that produced the two values.
func Residual(tab *symbolic.Table, v12, v21 symbolic.Expr) Pred {
	if symbolic.Equal(v12, v21) {
		return True{}
	}
	conds := embeddedConds(v12, v21)
	if len(conds) == 0 || len(conds) > maxCaseConds {
		return MkAtom(eq(tab, v12, v21))
	}
	var cases []Pred
	for mask := 0; mask < 1<<len(conds); mask++ {
		repl := make(map[string]symbolic.Expr, len(conds))
		var assume []Pred
		for i, c := range conds {
			val := mask&(1<<i) != 0
			repl[c.Key()] = symbolic.Bool{V: val}
			if val {
				assume = append(assume, MkAtom(c))
			} else {
				assume = append(assume, MkAtom(symbolic.Simplify(tab, symbolic.MkNot(tab, c))))
			}
		}
		a12 := symbolic.Simplify(tab, symbolic.Subst(tab, v12, repl))
		a21 := symbolic.Simplify(tab, symbolic.Subst(tab, v21, repl))
		if !symbolic.Equal(a12, a21) {
			assume = append(assume, MkAtom(eq(tab, a12, a21)))
		}
		cases = append(cases, MkAnd(assume...))
	}
	return MkOr(cases...)
}

// eq builds the simplified equality of two symbolic values.
func eq(tab *symbolic.Table, a, b symbolic.Expr) symbolic.Expr {
	return symbolic.Simplify(tab, symbolic.MkBin(tab, symbolic.OpEq, a, b))
}

// embeddedConds returns the distinct Cond conditions appearing
// anywhere in the given expressions, sorted by canonical key.
func embeddedConds(es ...symbolic.Expr) []symbolic.Expr {
	seen := map[string]symbolic.Expr{}
	for _, e := range es {
		symbolic.Walk(e, func(n symbolic.Expr) bool {
			if c, ok := n.(*symbolic.Cond); ok {
				seen[c.C.Key()] = c.C
			}
			return true
		})
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]symbolic.Expr, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// ---------------------------------------------------------------------
// Guardability and weakening

// FieldRef names a runtime-readable leaf of a guard: field Field,
// declared by class Class, of the global object Global. These arise
// from extent constants of the form "ec:<Class>.<field>@global:<G>" —
// values the analysis already proved constant over the extent, so
// reading them once at region entry is sound.
type FieldRef struct {
	Global string
	Class  string
	Field  string
}

// ParseFieldRef parses an extent-constant ID into a FieldRef. Only
// single-level field reads of global objects qualify: the descriptor
// part must be exactly "<Class>.<field>" (no access path, no
// this-relative prefix) and the base must be "global:<name>".
func ParseFieldRef(id string) (FieldRef, bool) {
	body, ok := strings.CutPrefix(id, "ec:")
	if !ok {
		return FieldRef{}, false
	}
	at := strings.LastIndex(body, "@")
	if at < 0 {
		return FieldRef{}, false
	}
	desc, base := body[:at], body[at+1:]
	g, ok := strings.CutPrefix(base, "global:")
	if !ok || g == "" {
		return FieldRef{}, false
	}
	dot := strings.IndexByte(desc, '.')
	if dot <= 0 || dot == len(desc)-1 {
		return FieldRef{}, false
	}
	cls, fld := desc[:dot], desc[dot+1:]
	if strings.Contains(fld, ".") || strings.Contains(desc, "→") {
		return FieldRef{}, false
	}
	return FieldRef{Global: g, Class: cls, Field: fld}, true
}

// guardableOps is the expression fragment both guard backends evaluate
// identically and totally (no division: int division by zero would
// fault in one backend and not the other).
func guardableOp(op symbolic.Op) bool {
	switch op {
	case symbolic.OpAdd, symbolic.OpMul, symbolic.OpAnd, symbolic.OpOr,
		symbolic.OpEq, symbolic.OpNe, symbolic.OpLt, symbolic.OpLe,
		symbolic.OpGt, symbolic.OpGe:
		return true
	}
	return false
}

// Guardable reports whether e lies in the runtime-evaluable fragment:
// literals, extent-constant global fields, and total arithmetic /
// comparison / boolean operators.
func Guardable(e symbolic.Expr) bool {
	ok := true
	symbolic.Walk(e, func(n symbolic.Expr) bool {
		if !ok {
			return false
		}
		switch x := n.(type) {
		case symbolic.Num, symbolic.Bool:
		case symbolic.Extent:
			if _, refOK := ParseFieldRef(x.ID); !refOK {
				ok = false
			}
		case *symbolic.Nary:
			if !guardableOp(x.Op) {
				ok = false
			}
		case *symbolic.Bin:
			if !guardableOp(x.Op) {
				ok = false
			}
		case *symbolic.Neg, *symbolic.Not:
		default:
			// Null, Var, Call, Cond, array forms: not evaluable at
			// region entry.
			ok = false
		}
		return ok
	})
	return ok
}

// Guard weakens p to its guardable fragment: every atom outside the
// runtime-evaluable fragment becomes False. Because the IR is
// negation-free above the atoms, the result soundly implies p — the
// guard may refuse states where the full residual held, never the
// converse. Returns False when nothing evaluable remains.
func Guard(p Pred) Pred {
	switch x := p.(type) {
	case nil:
		return False{}
	case True, False:
		return x
	case Atom:
		if Guardable(x.E) {
			return x
		}
		return False{}
	case *And:
		out := make([]Pred, len(x.Ps))
		for i, q := range x.Ps {
			out[i] = Guard(q)
		}
		return MkAnd(out...)
	case *Or:
		out := make([]Pred, len(x.Ps))
		for i, q := range x.Ps {
			out[i] = Guard(q)
		}
		return MkOr(out...)
	}
	return False{}
}
