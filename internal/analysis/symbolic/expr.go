// Package symbolic implements the symbolic expressions of Figure 12 of
// Rinard & Diniz 1996, the symbolic execution of method pairs (§4.8.1),
// and the expression simplifier and isomorphism comparison (§4.8.2)
// used by the commutativity testing algorithm.
package symbolic

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
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
// Table: nodes built by one analysis's executor or simplifier with the
// same operator and the same operands share one allocation, so `==` on
// Expr values is both safe and a cheap structural fast path. Composite
// literals constructed outside the package (`&Nary{...}`) are legal but
// uninterned until Intern; Key renders them like any other node.
type Expr interface {
	Key() string
	expr()
}

// Num is a numeric literal.
type Num struct {
	V     float64
	IsInt bool
}

// Boxing a Num or a Var in an Expr allocates, so the leaves executions
// and the simplifier produce most are boxed once, here, and shared.
var (
	thisVar   Expr = Var{Name: "this"}
	voidVar   Expr = Var{Name: "void"}
	minusOne  Expr = Num{V: -1, IsInt: true}
	smallInts      = func() (t [256]Expr) {
		for i := range t {
			t[i] = Num{V: float64(i), IsInt: true}
		}
		return t
	}()
)

// intExpr is the integer v as an Expr.
func intExpr(v int64) Expr {
	if v >= 0 && v < int64(len(smallInts)) {
		return smallInts[v]
	}
	return Num{V: float64(v), IsInt: true}
}

// numExpr is Num{v, isInt} as an Expr.
func numExpr(v float64, isInt bool) Expr {
	if isInt && v >= 0 && v < float64(len(smallInts)) && v == float64(int64(v)) {
		return smallInts[int64(v)]
	}
	return Num{V: v, IsInt: isInt}
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
	node
}

// Bin is a binary non-commutative operator application.
type Bin struct {
	Op   Op
	L, R Expr
	node
}

// Neg is arithmetic negation.
type Neg struct {
	X Expr
	node
}

// Not is boolean negation.
type Not struct {
	X Expr
	node
}

// Call is a pure builtin application (sqrt, fabs, ...) or an
// uninterpreted operation such as a pointer cast ("cast:cell").
type Call struct {
	Fn   string
	Args []Expr
	node
}

// Cond is a conditional expression: C ? T : F.
type Cond struct {
	C, T, F Expr
	node
}

// ArrUpd is a whole-array elementwise update v = v ⊕ operand (the
// paper's first recognized loop form). Operand is either a scalar
// expression or an array-valued expression (a reference parameter or
// extent constant) combined elementwise.
type ArrUpd struct {
	Arr     Expr
	Op      Op
	Operand Expr
	node
}

// ArrFill is a whole-array elementwise store v[l] = e with e
// loop-invariant.
type ArrFill struct {
	Elem Expr
	node
}

// ArrStore is a single-element array store.
type ArrStore struct {
	Arr Expr
	Idx Expr
	Val Expr
	node
}

// ArrSel is a single-element array read.
type ArrSel struct {
	Arr Expr
	Idx Expr
	node
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
	node
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
// equal keys mean structurally isomorphic expressions. A composite node
// renders its key the first time Key is read, from its operands' keys,
// and keeps it (see node): a node whose key nothing reads, directly or
// through a parent's, never renders one.

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

// node is what every composite expression carries besides its
// operands: the identity the table that interned it gave it (zero for
// an uninterned node) and its rendering, once Key has been read. The
// goroutines of one analysis share its nodes, so the rendering is
// published atomically; two racing first reads render the same text.
type node struct {
	id  uint64
	key atomic.Pointer[string]
}

func (n *node) hdr() *node { return n }

// composite is implemented by the pointer expression types.
type composite interface {
	Expr
	hdr() *node
}

// keyOf returns c's rendering, made and kept on the first call.
func keyOf(c composite) string {
	n := c.hdr()
	if k := n.key.Load(); k != nil {
		return *k
	}
	var buf [256]byte
	k := string(keyBuf(buf[:0]).node(c))
	n.key.Store(&k)
	return k
}

func (e *Nary) Key() string     { return keyOf(e) }
func (e *Bin) Key() string      { return keyOf(e) }
func (e *Neg) Key() string      { return keyOf(e) }
func (e *Not) Key() string      { return keyOf(e) }
func (e *Call) Key() string     { return keyOf(e) }
func (e *Cond) Key() string     { return keyOf(e) }
func (e *ArrUpd) Key() string   { return keyOf(e) }
func (e *ArrFill) Key() string  { return keyOf(e) }
func (e *ArrStore) Key() string { return keyOf(e) }
func (e *ArrSel) Key() string   { return keyOf(e) }
func (e *AccumAt) Key() string  { return keyOf(e) }

// keyBuf is a rendering being written. Its methods switch on concrete
// types rather than call through Expr, so that a buffer on the stack
// stays there.
type keyBuf []byte

// s appends text.
func (b keyBuf) s(text string) keyBuf { return append(b, text...) }

// e appends x's rendering. A composite operand's is its Key, kept from
// here on: reached through the interface, the recursion leaves the
// buffer on its caller's stack.
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

// node appends composite x's rendering, made from its operands'.
func (b keyBuf) node(x composite) keyBuf {
	switch e := x.(type) {
	case *Nary:
		b = b.s("(")
		for i, a := range e.Args {
			if i > 0 {
				b = b.s(" ").s(e.Op.String()).s(" ")
			}
			b = b.e(a)
		}
		return b.s(")")
	case *Bin:
		return b.s("(").e(e.L).s(" ").s(e.Op.String()).s(" ").e(e.R).s(")")
	case *Neg:
		return b.s("(-").e(e.X).s(")")
	case *Not:
		return b.s("(!").e(e.X).s(")")
	case *Call:
		b = b.s(e.Fn).s("(")
		for i, a := range e.Args {
			if i > 0 {
				b = b.s(", ")
			}
			b = b.e(a)
		}
		return b.s(")")
	case *Cond:
		return b.s("(").e(e.C).s(" ? ").e(e.T).s(" : ").e(e.F).s(")")
	case *ArrUpd:
		return b.s("upd(").e(e.Arr).s(" ").s(e.Op.String()).s("= ").e(e.Operand).s(")")
	case *ArrFill:
		return b.s("fill(").e(e.Elem).s(")")
	case *ArrStore:
		return b.s("store(").e(e.Arr).s(", ").e(e.Idx).s(", ").e(e.Val).s(")")
	case *ArrSel:
		return b.s("sel(").e(e.Arr).s(", ").e(e.Idx).s(")")
	case *AccumAt:
		return b.s("accum(").e(e.Arr).s("[").e(e.Idx).s("] ").s(e.Op.String()).s("= ").e(e.Delta).s(")")
	}
	panic("symbolic: unknown node")
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
// canonicalization. Multisets that hold the same invocations, node for
// node, are; only others are rendered and compared by Key.
func EqualMultisets(a, b Multiset) bool { return samePermutation(a, b) || a.Key() == b.Key() }

// samePermutation reports whether b is a permutation of a, invocations
// paired off when they are made of the same nodes.
func samePermutation(a, b Multiset) bool {
	if len(a) != len(b) {
		return false
	}
	var buf [16]bool
	used := buf[:0]
	if len(b) > len(buf) {
		used = make([]bool, len(b))
	}
	used = used[:len(b)]
	for i := range a {
		j := 0
		for ; j < len(b); j++ {
			if !used[j] && a[i].same(&b[j]) {
				used[j] = true
				break
			}
		}
		if j == len(b) {
			return false
		}
	}
	return true
}

// same reports whether m and o are made of the same nodes, which makes
// their renderings equal.
func (m *MX) same(o *MX) bool {
	if m.Guard != o.Guard || m.Recv != o.Recv || m.Method != o.Method || !slices.Equal(m.Args, o.Args) {
		return false
	}
	if m.Loop == o.Loop {
		return true
	}
	return m.Loop != nil && o.Loop != nil && m.Loop.Var == o.Loop.Var &&
		m.Loop.From == o.Loop.From && m.Loop.To == o.Loop.To && m.Loop.Step == o.Loop.Step
}

// String helpers for diagnostics.
func (ms Multiset) String() string { return "{" + ms.Key() + "}" }
