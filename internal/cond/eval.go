package cond

import (
	"fmt"
	"strconv"
	"strings"

	"commute/internal/analysis/symbolic"
)

// Guard evaluation. A guard predicate is type-checked once, when the plan
// is built (Check): every leaf resolved to the kind of the field it reads,
// every operator applied at its kinds, the int operand of every mixed
// int/float pair converted explicitly. Both runtimes render the result —
// the interpreter as a closure over leaf accessors (Checked.Func), the Go
// emitter as the condition of an if statement (Checked.Go) — and neither
// rendering can fail or decide a kind. The guardable fragment excludes
// every faulting operator, so a checked guard is total: region entry
// never traps.

// Kind is the static type of a guard expression.
type Kind int

const (
	KInt Kind = iota
	KFloat
	KBool
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KBool:
		return "bool"
	}
	return "?"
}

// Value is a guard-time runtime value.
type Value struct {
	K Kind
	I int64
	F float64
	B bool
}

// IntVal wraps an int64.
func IntVal(i int64) Value { return Value{K: KInt, I: i} }

// FloatVal wraps a float64.
func FloatVal(f float64) Value { return Value{K: KFloat, F: f} }

// BoolVal wraps a bool.
func BoolVal(b bool) Value { return Value{K: KBool, B: b} }

// Checked is a guard predicate that passed Check: a tree of typed nodes
// whose root is bool-valued.
type Checked struct {
	op   nodeOp
	kind Kind
	bin  symbolic.Op // opBin's operator; opJoin's OpAnd or OpOr
	lit  Value       // opLit
	ref  FieldRef    // opLeaf
	args []*Checked
}

type nodeOp int

const (
	opLit   nodeOp = iota
	opLeaf         // a field of a global object
	opFloat        // an int operand converted to float
	opNeg
	opNot
	opBin  // a comparison, &&, ||, + or * inside an atom
	opJoin // the conjunction or disjunction of predicates
)

// Check type-checks p against the program: kind gives the kind of the
// field a reference reads, false when the reference does not resolve to
// an int, double or bool field. It refuses a leaf that does not resolve,
// an atom that is not bool-valued, an operator applied at the wrong kinds
// and anything outside the guardable fragment. A nil p, like False, is
// the guard that never holds.
func Check(p Pred, kind func(FieldRef) (Kind, bool)) (*Checked, error) {
	switch x := p.(type) {
	case nil, False:
		return literal(BoolVal(false)), nil
	case True:
		return literal(BoolVal(true)), nil
	case Atom:
		n, err := checkExpr(x.E, kind)
		if err != nil {
			return nil, err
		}
		if n.kind != KBool {
			return nil, fmt.Errorf("cond: atom %s is %s-valued, want bool", x.E.Key(), n.kind)
		}
		return n, nil
	case *And:
		return checkJoin(symbolic.OpAnd, x.Ps, kind)
	case *Or:
		return checkJoin(symbolic.OpOr, x.Ps, kind)
	}
	return nil, fmt.Errorf("cond: unknown predicate %T", p)
}

func checkJoin(op symbolic.Op, ps []Pred, kind func(FieldRef) (Kind, bool)) (*Checked, error) {
	n := &Checked{op: opJoin, kind: KBool, bin: op, args: make([]*Checked, len(ps))}
	for i, q := range ps {
		a, err := Check(q, kind)
		if err != nil {
			return nil, err
		}
		n.args[i] = a
	}
	return n, nil
}

func literal(v Value) *Checked { return &Checked{op: opLit, kind: v.K, lit: v} }

func checkExpr(e symbolic.Expr, kind func(FieldRef) (Kind, bool)) (*Checked, error) {
	switch x := e.(type) {
	case symbolic.Num:
		if x.IsInt {
			return literal(IntVal(int64(x.V))), nil
		}
		return literal(FloatVal(x.V)), nil
	case symbolic.Bool:
		return literal(BoolVal(x.V)), nil
	case symbolic.Extent:
		ref, ok := ParseFieldRef(x.ID)
		if !ok {
			return nil, fmt.Errorf("cond: extent constant %s is not a guardable field reference", x.ID)
		}
		k, ok := kind(ref)
		if !ok {
			return nil, fmt.Errorf("cond: %s.%s@global:%s is not an int, double or bool field", ref.Class, ref.Field, ref.Global)
		}
		return &Checked{op: opLeaf, kind: k, ref: ref}, nil
	case *symbolic.Neg:
		a, err := checkExpr(x.X, kind)
		if err != nil {
			return nil, err
		}
		if a.kind == KBool {
			return nil, fmt.Errorf("cond: negation of bool operand")
		}
		return &Checked{op: opNeg, kind: a.kind, args: []*Checked{a}}, nil
	case *symbolic.Not:
		a, err := checkExpr(x.X, kind)
		if err != nil {
			return nil, err
		}
		if a.kind != KBool {
			return nil, fmt.Errorf("cond: ! of %s operand", a.kind)
		}
		return &Checked{op: opNot, kind: KBool, args: []*Checked{a}}, nil
	case *symbolic.Bin:
		return checkFold(x.Op, []symbolic.Expr{x.L, x.R}, kind)
	case *symbolic.Nary:
		return checkFold(x.Op, x.Args, kind)
	}
	return nil, fmt.Errorf("cond: expression %s is outside the guardable fragment", e.Key())
}

// checkFold applies op to the operands from the left, one binary step
// each.
func checkFold(op symbolic.Op, operands []symbolic.Expr, kind func(FieldRef) (Kind, bool)) (*Checked, error) {
	if len(operands) == 0 {
		return nil, fmt.Errorf("cond: empty %s application", op)
	}
	n, err := checkExpr(operands[0], kind)
	if err != nil {
		return nil, err
	}
	for _, e := range operands[1:] {
		r, err := checkExpr(e, kind)
		if err != nil {
			return nil, err
		}
		if n, err = binary(op, n, r); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// binary types one application of op: && and || take bools, ordering and
// arithmetic take numbers, == and != take either, and the int operand of
// a mixed pair converts to float.
func binary(op symbolic.Op, l, r *Checked) (*Checked, error) {
	bools := l.kind == KBool && r.kind == KBool
	numbers := l.kind != KBool && r.kind != KBool
	var ok bool
	switch op {
	case symbolic.OpAnd, symbolic.OpOr:
		ok = bools
	case symbolic.OpEq, symbolic.OpNe:
		ok = bools || numbers
	case symbolic.OpLt, symbolic.OpLe, symbolic.OpGt, symbolic.OpGe, symbolic.OpAdd, symbolic.OpMul:
		ok = numbers
	default:
		return nil, fmt.Errorf("cond: operator %s is outside the guardable fragment", op)
	}
	if !ok {
		return nil, fmt.Errorf("cond: %s over %s/%s operands", op, l.kind, r.kind)
	}
	if numbers && l.kind != r.kind {
		l, r = toFloat(l), toFloat(r)
	}
	n := &Checked{op: opBin, kind: KBool, bin: op, args: []*Checked{l, r}}
	if op == symbolic.OpAdd || op == symbolic.OpMul {
		n.kind = l.kind
	}
	return n, nil
}

func toFloat(n *Checked) *Checked {
	if n.kind != KInt {
		return n
	}
	return &Checked{op: opFloat, kind: KFloat, args: []*Checked{n}}
}

// ---------------------------------------------------------------------
// The interpreter's rendering

// Func renders c as a closure. leaf gives the accessor of the field a
// reference reads, at the kind Check found for it.
func (c *Checked) Func(leaf func(FieldRef, Kind) func() Value) func() bool {
	f := c.eval(leaf)
	return func() bool { return f().B }
}

func (c *Checked) eval(leaf func(FieldRef, Kind) func() Value) func() Value {
	switch c.op {
	case opLit:
		v := c.lit
		return func() Value { return v }
	case opLeaf:
		return leaf(c.ref, c.kind)
	}
	args := make([]func() Value, len(c.args))
	for i, a := range c.args {
		args[i] = a.eval(leaf)
	}
	if c.op == opJoin {
		// The first operand that differs from the conjunction's identity
		// (true) or the disjunction's (false) decides.
		and := c.bin == symbolic.OpAnd
		return func() Value {
			for _, f := range args {
				if f().B != and {
					return BoolVal(!and)
				}
			}
			return BoolVal(and)
		}
	}
	x := args[0]
	switch c.op {
	case opFloat:
		return func() Value { return FloatVal(float64(x().I)) }
	case opNeg:
		if c.kind == KInt {
			return func() Value { return IntVal(-x().I) }
		}
		return func() Value { return FloatVal(-x().F) }
	case opNot:
		return func() Value { return BoolVal(!x().B) }
	}
	y, op := args[1], c.bin
	switch c.args[0].kind {
	case KBool:
		return func() Value { return BoolVal(logic(op, x().B, y().B)) }
	case KInt:
		if c.kind == KBool {
			return func() Value { return BoolVal(compare(op, x().I, y().I)) }
		}
		return func() Value { return IntVal(arith(op, x().I, y().I)) }
	}
	if c.kind == KBool {
		return func() Value { return BoolVal(compare(op, x().F, y().F)) }
	}
	return func() Value { return FloatVal(arith(op, x().F, y().F)) }
}

func logic(op symbolic.Op, a, b bool) bool {
	switch op {
	case symbolic.OpAnd:
		return a && b
	case symbolic.OpOr:
		return a || b
	case symbolic.OpEq:
		return a == b
	}
	return a != b
}

func compare[T int64 | float64](op symbolic.Op, a, b T) bool {
	switch op {
	case symbolic.OpEq:
		return a == b
	case symbolic.OpNe:
		return a != b
	case symbolic.OpLt:
		return a < b
	case symbolic.OpLe:
		return a <= b
	case symbolic.OpGt:
		return a > b
	}
	return a >= b
}

func arith[T int64 | float64](op symbolic.Op, a, b T) T {
	if op == symbolic.OpAdd {
		return a + b
	}
	return a * b
}

// ---------------------------------------------------------------------
// The Go emitter's rendering

// Go renders c as the condition of a Go if statement whose evaluation
// matches Func bit for bit. leaf spells the read of the field a reference
// names. A conversion is a float64(...) call, and every float arithmetic
// step is wrapped in float64(...) to fence FMA contraction, mirroring the
// native backend's expression emission. The text is laid out the way
// gofmt prints it after `if `, so the emitter can write it as it stands.
func (c *Checked) Go(leaf func(FieldRef) string) string { return c.text(leaf).at(1) }

// goExpr is a Go expression not yet laid out. gofmt's blanks depend on
// the nesting depth an expression is printed at (go/printer's
// binaryExpr: 1 at statement level and for an if condition, one more
// inside a binary operand, and parentheses take a level back off; below
// level 1 arithmetic operators lose their blanks), while an
// expression's kind, and with it the choice between parentheses and a
// float64 fence, is only known once its operands are. So rendering
// returns the layout as a function of the depth.
type goExpr struct {
	// paren: an operator expression, parenthesised as an operand and
	// bare as an if condition.
	paren bool
	// at renders the expression — without those parentheses — at a
	// depth.
	at func(depth int) string
}

func goText(s string) goExpr { return goExpr{at: func(int) string { return s }} }

// operand renders g as an operand printed at depth d.
func (g goExpr) operand(d int) string {
	if g.paren {
		return "(" + g.at(max(d-1, 1)) + ")"
	}
	return g.at(d)
}

// goBinary joins two operands, which print one level below their
// operator. Arithmetic is blank-separated at depth 1 only.
func goBinary(l goExpr, op string, r goExpr, arith bool) goExpr {
	return goExpr{paren: true, at: func(d int) string {
		if arith && d > 1 {
			return l.operand(d+1) + op + r.operand(d+1)
		}
		return l.operand(d+1) + " " + op + " " + r.operand(d+1)
	}}
}

// goUnary prefixes an operand, which keeps the operator's depth.
func goUnary(op string, g goExpr) goExpr {
	return goExpr{paren: true, at: func(d int) string { return op + g.operand(d) }}
}

// goConvert wraps a rendering in a float64 conversion, which keeps the
// depth.
func goConvert(at func(depth int) string) goExpr {
	return goExpr{at: func(d int) string { return "float64(" + at(d) + ")" }}
}

func (c *Checked) text(leaf func(FieldRef) string) goExpr {
	switch c.op {
	case opLit:
		return goText(c.lit.goLiteral())
	case opLeaf:
		return goText(leaf(c.ref))
	}
	args := make([]goExpr, len(c.args))
	for i, a := range c.args {
		args[i] = a.text(leaf)
	}
	switch c.op {
	case opFloat:
		return goConvert(args[0].operand)
	case opNeg:
		return goUnary("-", args[0])
	case opNot:
		return goUnary("!", args[0])
	case opJoin:
		// A chain of one operator is one expression to gofmt: every
		// operand prints one level below it.
		return goExpr{paren: true, at: func(d int) string {
			texts := make([]string, len(args))
			for i, g := range args {
				texts[i] = g.operand(d + 1)
			}
			return strings.Join(texts, " "+c.bin.String()+" ")
		}}
	}
	arithmetic := c.bin == symbolic.OpAdd || c.bin == symbolic.OpMul
	g := goBinary(args[0], c.bin.String(), args[1], arithmetic)
	if arithmetic && c.kind == KFloat {
		// The fence is a conversion, not parentheses.
		return goConvert(g.at)
	}
	return g
}

// goLiteral spells a literal; a float always carries a decimal point or
// an exponent, so the Go constant stays typed float64.
func (v Value) goLiteral() string {
	switch v.K {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return strconv.FormatBool(v.B)
}
