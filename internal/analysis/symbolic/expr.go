// Package symbolic implements the symbolic expressions of Figure 12 of
// Rinard & Diniz 1996, the symbolic execution of method pairs (§4.8.1),
// and the expression simplifier and isomorphism comparison (§4.8.2)
// used by the commutativity testing algorithm.
package symbolic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op is an operator in the symbolic expression language.
type Op int

// Operators. Add/Mul/And/Or are associative and commutative and appear
// only in n-ary form after simplification.
const (
	OpAdd Op = iota
	OpMul
	OpAnd
	OpOr
	OpDiv
	OpMod
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpMul:
		return "*"
	case OpAnd:
		return "&&"
	case OpOr:
		return "||"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	}
	return "?"
}

// Commutative reports whether the operator is associative-commutative.
func (o Op) Commutative() bool {
	return o == OpAdd || o == OpMul || o == OpAnd || o == OpOr
}

// Expr is a symbolic expression. Expressions are immutable; Key returns
// a canonical string used for structural (isomorphism) comparison after
// simplification.
//
// Leaf expressions (Num, Bool, Null, Extent, Var) are comparable value
// types. Composite expressions are pointer types hash-consed through
// the package's intern table: nodes built by the executor or the
// simplifier with identical canonical keys share one allocation, so
// `==` on Expr values is both safe and a cheap structural fast path.
// Composite literals constructed outside the package (`&Nary{...}`)
// are legal but uninterned; Key falls back to recomputing the
// rendering for them.
type Expr interface {
	Key() string
	expr()
}

// Num is a numeric literal.
type Num struct {
	V     float64
	IsInt bool
}

// Bool is a boolean literal.
type Bool struct{ V bool }

// Null is the NULL pointer literal.
type Null struct{}

// Extent is an opaque extent constant (§3.5.1): a value known to be the
// same whenever the operation executes within the extent. The ID keys
// equality.
type Extent struct{ ID string }

// Var is a symbolic variable: the old value of an instance variable,
// the receiver, a parameter of one of the executed invocations, or an
// undefined initial local value.
type Var struct{ Name string }

// Nary is an n-ary application of an associative-commutative operator.
type Nary struct {
	Op   Op
	Args []Expr
	key  string
}

// Bin is a binary non-commutative operator application.
type Bin struct {
	Op   Op
	L, R Expr
	key  string
}

// Neg is arithmetic negation.
type Neg struct {
	X   Expr
	key string
}

// Not is boolean negation.
type Not struct {
	X   Expr
	key string
}

// Call is a pure builtin application (sqrt, fabs, ...) or an
// uninterpreted operation such as a pointer cast ("cast:cell").
type Call struct {
	Fn   string
	Args []Expr
	key  string
}

// Cond is a conditional expression: C ? T : F.
type Cond struct {
	C, T, F Expr
	key     string
}

// ArrUpd is a whole-array elementwise update v = v ⊕ operand (the
// paper's first recognized loop form). Operand is either a scalar
// expression or an array-valued expression (a reference parameter or
// extent constant) combined elementwise.
type ArrUpd struct {
	Arr     Expr
	Op      Op
	Operand Expr
	key     string
}

// ArrFill is a whole-array elementwise store v[l] = e with e
// loop-invariant.
type ArrFill struct {
	Elem Expr
	key  string
}

// ArrStore is a single-element array store.
type ArrStore struct {
	Arr Expr
	Idx Expr
	Val Expr
	key string
}

// ArrSel is a single-element array read.
type ArrSel struct {
	Arr Expr
	Idx Expr
	key string
}

// AccumAt is a commutative accumulation into one array element:
// a[Idx] = a[Idx] ⊕ Delta. Chains of AccumAt with the same operator
// reorder freely (the array-expression rules of the companion paper
// [33]), which is what lets per-element reductions into shared arrays
// commute.
type AccumAt struct {
	Arr   Expr
	Op    Op
	Idx   Expr
	Delta Expr
	key   string
}

func (Num) expr()       {}
func (Bool) expr()      {}
func (Null) expr()      {}
func (Extent) expr()    {}
func (Var) expr()       {}
func (*Nary) expr()     {}
func (*Bin) expr()      {}
func (*Neg) expr()      {}
func (*Not) expr()      {}
func (*Call) expr()     {}
func (*Cond) expr()     {}
func (*ArrUpd) expr()   {}
func (*ArrFill) expr()  {}
func (*ArrStore) expr() {}
func (*ArrSel) expr()   {}
func (*AccumAt) expr()  {}

// Key implementations produce a canonical rendering; after Simplify,
// equal keys mean structurally isomorphic expressions. Interned nodes
// carry the rendering computed once at construction; uninterned
// literals recompute it on demand.

func (e Num) Key() string {
	if e.IsInt {
		return strconv.FormatInt(int64(e.V), 10)
	}
	return strconv.FormatFloat(e.V, 'g', -1, 64)
}

func (e Bool) Key() string {
	if e.V {
		return "true"
	}
	return "false"
}

func (Null) Key() string     { return "NULL" }
func (e Extent) Key() string { return "⟨" + e.ID + "⟩" }
func (e Var) Key() string    { return e.Name }

// naryKey renders prefix, then the node's key, in one allocation (the
// hash-consing of an n-ary node renders one per construction).
func naryKey(prefix string, op Op, args []Expr) string {
	var few [8]string
	parts := few[:0]
	sep := " " + op.String() + " "
	n := len(prefix) + 2 + max(len(args)-1, 0)*len(sep)
	for _, a := range args {
		k := a.Key()
		parts = append(parts, k)
		n += len(k)
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString(prefix)
	sb.WriteByte('(')
	for i, k := range parts {
		if i > 0 {
			sb.WriteString(sep)
		}
		sb.WriteString(k)
	}
	sb.WriteByte(')')
	return sb.String()
}

func (e *Nary) Key() string {
	if e.key != "" {
		return e.key
	}
	return naryKey("", e.Op, e.Args)
}

func binKey(op Op, l, r Expr) string {
	return "(" + l.Key() + " " + op.String() + " " + r.Key() + ")"
}

func (e *Bin) Key() string {
	if e.key != "" {
		return e.key
	}
	return binKey(e.Op, e.L, e.R)
}

func negKey(x Expr) string { return "(-" + x.Key() + ")" }
func notKey(x Expr) string { return "(!" + x.Key() + ")" }

func (e *Neg) Key() string {
	if e.key != "" {
		return e.key
	}
	return negKey(e.X)
}

func (e *Not) Key() string {
	if e.key != "" {
		return e.key
	}
	return notKey(e.X)
}

func callKey(fn string, args []Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.Key()
	}
	return fn + "(" + strings.Join(parts, ", ") + ")"
}

func (e *Call) Key() string {
	if e.key != "" {
		return e.key
	}
	return callKey(e.Fn, e.Args)
}

func condKey(c, t, f Expr) string {
	return "(" + c.Key() + " ? " + t.Key() + " : " + f.Key() + ")"
}

func (e *Cond) Key() string {
	if e.key != "" {
		return e.key
	}
	return condKey(e.C, e.T, e.F)
}

func arrUpdKey(arr Expr, op Op, operand Expr) string {
	return "upd(" + arr.Key() + " " + op.String() + "= " + operand.Key() + ")"
}

func (e *ArrUpd) Key() string {
	if e.key != "" {
		return e.key
	}
	return arrUpdKey(e.Arr, e.Op, e.Operand)
}

func arrFillKey(elem Expr) string { return "fill(" + elem.Key() + ")" }

func (e *ArrFill) Key() string {
	if e.key != "" {
		return e.key
	}
	return arrFillKey(e.Elem)
}

func arrStoreKey(arr, idx, val Expr) string {
	return "store(" + arr.Key() + ", " + idx.Key() + ", " + val.Key() + ")"
}

func (e *ArrStore) Key() string {
	if e.key != "" {
		return e.key
	}
	return arrStoreKey(e.Arr, e.Idx, e.Val)
}

func arrSelKey(arr, idx Expr) string {
	return "sel(" + arr.Key() + ", " + idx.Key() + ")"
}

func (e *ArrSel) Key() string {
	if e.key != "" {
		return e.key
	}
	return arrSelKey(e.Arr, e.Idx)
}

func accumAtKey(arr Expr, op Op, idx, delta Expr) string {
	return "accum(" + arr.Key() + "[" + idx.Key() + "] " +
		op.String() + "= " + delta.Key() + ")"
}

func (e *AccumAt) Key() string {
	if e.key != "" {
		return e.key
	}
	return accumAtKey(e.Arr, e.Op, e.Idx, e.Delta)
}

// Equal reports whether two expressions have identical canonical form.
// Interned nodes compare by pointer first.
func Equal(a, b Expr) bool {
	if a == b {
		return true
	}
	return a.Key() == b.Key()
}

// ---------------------------------------------------------------------
// Invocation expressions (MX)

// LoopSpec describes a loop-form invocation (the paper's second
// recognized loop form): the operation is invoked once per loop index.
type LoopSpec struct {
	Var      string
	From, To Expr
	Step     Expr
}

func (l *LoopSpec) key() string {
	if l == nil {
		return ""
	}
	return "for " + l.Var + "=" + l.From.Key() + ".." + l.To.Key() + " step " + l.Step.Key() + ": "
}

// MX is one invocation expression: an operation invoked with a guard
// condition (true if unconditional) and argument expressions, possibly
// iterated by a loop form.
type MX struct {
	Guard  Expr
	Recv   Expr
	Method string
	Args   []Expr
	Loop   *LoopSpec
}

// Key returns the canonical rendering of the invocation.
func (m MX) Key() string {
	var sb strings.Builder
	if m.Guard != nil && m.Guard.Key() != "true" {
		sb.WriteString("[" + m.Guard.Key() + "] ")
	}
	sb.WriteString(m.Loop.key())
	sb.WriteString(m.Recv.Key())
	sb.WriteString("->")
	sb.WriteString(m.Method)
	sb.WriteByte('(')
	parts := make([]string, len(m.Args))
	for i, a := range m.Args {
		parts[i] = a.Key()
	}
	sb.WriteString(strings.Join(parts, ", "))
	sb.WriteByte(')')
	return sb.String()
}

// Multiset is a multiset of invocation expressions.
type Multiset []MX

// Key returns the canonical rendering: simplified, guard-false entries
// dropped, sorted.
func (ms Multiset) Key() string {
	keys := make([]string, 0, len(ms))
	for _, m := range ms {
		if m.Guard != nil && m.Guard.Key() == "false" {
			continue
		}
		keys = append(keys, m.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, " ⊎ ")
}

// EqualMultisets reports whether the two multisets are equal after
// canonicalization.
func EqualMultisets(a, b Multiset) bool { return a.Key() == b.Key() }

// String helpers for diagnostics.
func (ms Multiset) String() string { return "{" + ms.Key() + "}" }

// Fmt renders an instance-variable binding map deterministically (used
// in reports and tests).
func Fmt(bindings map[string]Expr) string {
	names := make([]string, 0, len(bindings))
	for n := range bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s ↦ %s", n, bindings[n].Key())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
