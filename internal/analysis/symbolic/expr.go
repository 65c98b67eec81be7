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
// types. Composite expressions are pointer types hash-consed through a
// Table: nodes built by one analysis's executor or simplifier with
// identical canonical keys share one allocation, so `==` on Expr values
// is both safe and a cheap structural fast path. Composite literals
// constructed outside the package (`&Nary{...}`) are legal but
// uninterned; Key falls back to recomputing the rendering for them.
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
// literals recompute it on demand. A composite node's rendering is
// written by its *Key function into a keyBuf, so that looking a node up
// in its table allocates nothing.

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

// keyBuf is a rendering being written.
type keyBuf []byte

// s appends text.
func (b keyBuf) s(text string) keyBuf { return append(b, text...) }

// e appends x's rendering.
func (b keyBuf) e(x Expr) keyBuf {
	switch v := x.(type) {
	case Num:
		if v.IsInt {
			return strconv.AppendInt(b, int64(v.V), 10)
		}
		return strconv.AppendFloat(b, v.V, 'g', -1, 64)
	case Extent:
		return b.s("⟨").s(v.ID).s("⟩")
	}
	return b.s(x.Key())
}

func naryKey(b keyBuf, op Op, args []Expr) keyBuf {
	b = b.s("(")
	for i, a := range args {
		if i > 0 {
			b = b.s(" ").s(op.String()).s(" ")
		}
		b = b.e(a)
	}
	return b.s(")")
}

func (e *Nary) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(naryKey(nil, e.Op, e.Args))
}

func binKey(b keyBuf, op Op, l, r Expr) keyBuf {
	return b.s("(").e(l).s(" ").s(op.String()).s(" ").e(r).s(")")
}

func (e *Bin) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(binKey(nil, e.Op, e.L, e.R))
}

func negKey(b keyBuf, x Expr) keyBuf { return b.s("(-").e(x).s(")") }
func notKey(b keyBuf, x Expr) keyBuf { return b.s("(!").e(x).s(")") }

func (e *Neg) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(negKey(nil, e.X))
}

func (e *Not) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(notKey(nil, e.X))
}

func callKey(b keyBuf, fn string, args []Expr) keyBuf {
	b = b.s(fn).s("(")
	for i, a := range args {
		if i > 0 {
			b = b.s(", ")
		}
		b = b.e(a)
	}
	return b.s(")")
}

func (e *Call) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(callKey(nil, e.Fn, e.Args))
}

func condKey(b keyBuf, c, t, f Expr) keyBuf {
	return b.s("(").e(c).s(" ? ").e(t).s(" : ").e(f).s(")")
}

func (e *Cond) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(condKey(nil, e.C, e.T, e.F))
}

func arrUpdKey(b keyBuf, arr Expr, op Op, operand Expr) keyBuf {
	return b.s("upd(").e(arr).s(" ").s(op.String()).s("= ").e(operand).s(")")
}

func (e *ArrUpd) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(arrUpdKey(nil, e.Arr, e.Op, e.Operand))
}

func arrFillKey(b keyBuf, elem Expr) keyBuf { return b.s("fill(").e(elem).s(")") }

func (e *ArrFill) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(arrFillKey(nil, e.Elem))
}

func arrStoreKey(b keyBuf, arr, idx, val Expr) keyBuf {
	return b.s("store(").e(arr).s(", ").e(idx).s(", ").e(val).s(")")
}

func (e *ArrStore) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(arrStoreKey(nil, e.Arr, e.Idx, e.Val))
}

func arrSelKey(b keyBuf, arr, idx Expr) keyBuf {
	return b.s("sel(").e(arr).s(", ").e(idx).s(")")
}

func (e *ArrSel) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(arrSelKey(nil, e.Arr, e.Idx))
}

func accumAtKey(b keyBuf, arr Expr, op Op, idx, delta Expr) keyBuf {
	return b.s("accum(").e(arr).s("[").e(idx).s("] ").s(op.String()).s("= ").e(delta).s(")")
}

func (e *AccumAt) Key() string {
	if e.key != "" {
		return e.key
	}
	return string(accumAtKey(nil, e.Arr, e.Op, e.Idx, e.Delta))
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
