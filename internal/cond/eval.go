package cond

import (
	"fmt"
	"strconv"
	"strings"

	"commute/internal/analysis/symbolic"
)

// Guard evaluation. A guard predicate is compiled once per (method,
// runtime) into a closure over leaf accessors supplied by the caller:
// the interpreter runtime binds FieldRefs to object slots, tests bind
// them to maps. The compiled closure is total — the guardable fragment
// excludes every faulting operator — so region entry never traps.

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

func (v Value) asFloat() float64 {
	if v.K == KInt {
		return float64(v.I)
	}
	return v.F
}

// Leaf binds one FieldRef at compile time: a getter producing the
// current value and its static kind.
type Leaf struct {
	Get  func() Value
	Kind Kind
}

// Compile compiles p into a boolean closure. leaf resolves every
// FieldRef in p to an accessor; compilation fails if a leaf cannot be
// bound, an atom is not boolean-valued, or an operator is applied at
// the wrong type — all conditions the planning layer screens for, so
// errors here indicate a plan/runtime mismatch.
func Compile(p Pred, leaf func(FieldRef) (Leaf, error)) (func() bool, error) {
	switch x := p.(type) {
	case nil, False:
		return func() bool { return false }, nil
	case True:
		return func() bool { return true }, nil
	case Atom:
		get, kind, err := compileExpr(x.E, leaf)
		if err != nil {
			return nil, err
		}
		if kind != KBool {
			return nil, fmt.Errorf("cond: atom %s is %s-valued, want bool", x.E.Key(), kind)
		}
		return func() bool { return get().B }, nil
	case *And:
		fns, err := compilePreds(x.Ps, leaf)
		if err != nil {
			return nil, err
		}
		return func() bool {
			for _, f := range fns {
				if !f() {
					return false
				}
			}
			return true
		}, nil
	case *Or:
		fns, err := compilePreds(x.Ps, leaf)
		if err != nil {
			return nil, err
		}
		return func() bool {
			for _, f := range fns {
				if f() {
					return true
				}
			}
			return false
		}, nil
	}
	return nil, fmt.Errorf("cond: unknown predicate %T", p)
}

func compilePreds(ps []Pred, leaf func(FieldRef) (Leaf, error)) ([]func() bool, error) {
	fns := make([]func() bool, len(ps))
	for i, q := range ps {
		f, err := Compile(q, leaf)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	return fns, nil
}

func compileExpr(e symbolic.Expr, leaf func(FieldRef) (Leaf, error)) (func() Value, Kind, error) {
	switch x := e.(type) {
	case symbolic.Num:
		v := x.V
		if x.IsInt {
			iv := IntVal(int64(v))
			return func() Value { return iv }, KInt, nil
		}
		fv := FloatVal(v)
		return func() Value { return fv }, KFloat, nil
	case symbolic.Bool:
		bv := BoolVal(x.V)
		return func() Value { return bv }, KBool, nil
	case symbolic.Extent:
		ref, ok := ParseFieldRef(x.ID)
		if !ok {
			return nil, 0, fmt.Errorf("cond: extent constant %s is not a guardable field reference", x.ID)
		}
		l, err := leaf(ref)
		if err != nil {
			return nil, 0, err
		}
		return l.Get, l.Kind, nil
	case *symbolic.Neg:
		get, kind, err := compileExpr(x.X, leaf)
		if err != nil {
			return nil, 0, err
		}
		switch kind {
		case KInt:
			return func() Value { return IntVal(-get().I) }, KInt, nil
		case KFloat:
			return func() Value { return FloatVal(-get().F) }, KFloat, nil
		}
		return nil, 0, fmt.Errorf("cond: negation of %s operand", kind)
	case *symbolic.Not:
		get, kind, err := compileExpr(x.X, leaf)
		if err != nil {
			return nil, 0, err
		}
		if kind != KBool {
			return nil, 0, fmt.Errorf("cond: ! of %s operand", kind)
		}
		return func() Value { return BoolVal(!get().B) }, KBool, nil
	case *symbolic.Bin:
		return compileBin(x.Op, x.L, x.R, leaf)
	case *symbolic.Nary:
		if len(x.Args) == 0 {
			return nil, 0, fmt.Errorf("cond: empty %s application", x.Op)
		}
		get, kind, err := compileExpr(x.Args[0], leaf)
		if err != nil {
			return nil, 0, err
		}
		for _, a := range x.Args[1:] {
			get, kind, err = combine(x.Op, get, kind, a, leaf)
			if err != nil {
				return nil, 0, err
			}
		}
		return get, kind, nil
	}
	return nil, 0, fmt.Errorf("cond: expression %s is outside the guardable fragment", e.Key())
}

// combine folds one more operand into an n-ary application.
func combine(op symbolic.Op, lget func() Value, lk Kind, r symbolic.Expr, leaf func(FieldRef) (Leaf, error)) (func() Value, Kind, error) {
	rget, rk, err := compileExpr(r, leaf)
	if err != nil {
		return nil, 0, err
	}
	switch op {
	case symbolic.OpAnd:
		if lk != KBool || rk != KBool {
			return nil, 0, fmt.Errorf("cond: && over %s/%s operands", lk, rk)
		}
		return func() Value { return BoolVal(lget().B && rget().B) }, KBool, nil
	case symbolic.OpOr:
		if lk != KBool || rk != KBool {
			return nil, 0, fmt.Errorf("cond: || over %s/%s operands", lk, rk)
		}
		return func() Value { return BoolVal(lget().B || rget().B) }, KBool, nil
	case symbolic.OpAdd:
		return arith(op, lget, lk, rget, rk, func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })
	case symbolic.OpMul:
		return arith(op, lget, lk, rget, rk, func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })
	}
	return nil, 0, fmt.Errorf("cond: operator %s is outside the guardable fragment", op)
}

func arith(op symbolic.Op, lget func() Value, lk Kind, rget func() Value, rk Kind, fi func(a, b int64) int64, ff func(a, b float64) float64) (func() Value, Kind, error) {
	if lk == KBool || rk == KBool {
		return nil, 0, fmt.Errorf("cond: %s over %s/%s operands", op, lk, rk)
	}
	if lk == KInt && rk == KInt {
		return func() Value { return IntVal(fi(lget().I, rget().I)) }, KInt, nil
	}
	return func() Value { return FloatVal(ff(lget().asFloat(), rget().asFloat())) }, KFloat, nil
}

func compileBin(op symbolic.Op, l, r symbolic.Expr, leaf func(FieldRef) (Leaf, error)) (func() Value, Kind, error) {
	lget, lk, err := compileExpr(l, leaf)
	if err != nil {
		return nil, 0, err
	}
	rget, rk, err := compileExpr(r, leaf)
	if err != nil {
		return nil, 0, err
	}
	boolPair := lk == KBool && rk == KBool
	numPair := lk != KBool && rk != KBool
	switch op {
	case symbolic.OpEq:
		if boolPair {
			return func() Value { return BoolVal(lget().B == rget().B) }, KBool, nil
		}
		if numPair {
			if lk == KInt && rk == KInt {
				return func() Value { return BoolVal(lget().I == rget().I) }, KBool, nil
			}
			return func() Value { return BoolVal(lget().asFloat() == rget().asFloat()) }, KBool, nil
		}
	case symbolic.OpNe:
		if boolPair {
			return func() Value { return BoolVal(lget().B != rget().B) }, KBool, nil
		}
		if numPair {
			if lk == KInt && rk == KInt {
				return func() Value { return BoolVal(lget().I != rget().I) }, KBool, nil
			}
			return func() Value { return BoolVal(lget().asFloat() != rget().asFloat()) }, KBool, nil
		}
	case symbolic.OpLt, symbolic.OpLe, symbolic.OpGt, symbolic.OpGe:
		if !numPair {
			break
		}
		if lk == KInt && rk == KInt {
			switch op {
			case symbolic.OpLt:
				return func() Value { return BoolVal(lget().I < rget().I) }, KBool, nil
			case symbolic.OpLe:
				return func() Value { return BoolVal(lget().I <= rget().I) }, KBool, nil
			case symbolic.OpGt:
				return func() Value { return BoolVal(lget().I > rget().I) }, KBool, nil
			default:
				return func() Value { return BoolVal(lget().I >= rget().I) }, KBool, nil
			}
		}
		switch op {
		case symbolic.OpLt:
			return func() Value { return BoolVal(lget().asFloat() < rget().asFloat()) }, KBool, nil
		case symbolic.OpLe:
			return func() Value { return BoolVal(lget().asFloat() <= rget().asFloat()) }, KBool, nil
		case symbolic.OpGt:
			return func() Value { return BoolVal(lget().asFloat() > rget().asFloat()) }, KBool, nil
		default:
			return func() Value { return BoolVal(lget().asFloat() >= rget().asFloat()) }, KBool, nil
		}
	default:
		return nil, 0, fmt.Errorf("cond: operator %s is outside the guardable fragment", op)
	}
	return nil, 0, fmt.Errorf("cond: %s over %s/%s operands", op, lk, rk)
}

// ---------------------------------------------------------------------
// Native emission

// GoLeaf is the native rendering of a FieldRef: a Go expression
// reading the field and its static kind.
type GoLeaf struct {
	Expr string
	Kind Kind
}

// EmitGo renders p as the condition of a Go if statement whose
// evaluation matches the compiled closure bit for bit: mixed int/float
// operands promote through float64 conversions, and every float
// arithmetic step is wrapped in float64(...) to fence FMA contraction,
// mirroring the native backend's expression emission. The text is
// laid out the way gofmt prints it after `if `, so the emitter can
// write it as it stands.
func EmitGo(p Pred, leaf func(FieldRef) (GoLeaf, error)) (string, error) {
	g, err := emitPred(p, leaf)
	if err != nil {
		return "", err
	}
	return g.at(1), nil
}

// goExpr is a Go expression not yet laid out. gofmt's blanks depend on
// the nesting depth an expression is printed at (go/printer's
// binaryExpr: 1 at statement level and for an if condition, one more
// inside a binary operand, and parentheses take a level back off; below
// level 1 arithmetic operators lose their blanks), while an
// expression's kind, and with it the choice between parentheses and a
// float64 fence, is only known once its operands are. So emission
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

func emitPred(p Pred, leaf func(FieldRef) (GoLeaf, error)) (goExpr, error) {
	switch x := p.(type) {
	case nil, False:
		return goText("false"), nil
	case True:
		return goText("true"), nil
	case Atom:
		g, kind, err := emitExpr(x.E, leaf)
		if err != nil {
			return goExpr{}, err
		}
		if kind != KBool {
			return goExpr{}, fmt.Errorf("cond: atom %s is %s-valued, want bool", x.E.Key(), kind)
		}
		return g, nil
	case *And:
		return emitJoin(x.Ps, "&&", leaf)
	case *Or:
		return emitJoin(x.Ps, "||", leaf)
	}
	return goExpr{}, fmt.Errorf("cond: unknown predicate %T", p)
}

func emitJoin(ps []Pred, op string, leaf func(FieldRef) (GoLeaf, error)) (goExpr, error) {
	parts := make([]goExpr, len(ps))
	for i, q := range ps {
		g, err := emitPred(q, leaf)
		if err != nil {
			return goExpr{}, err
		}
		parts[i] = g
	}
	// A chain of one operator is one expression to gofmt: every
	// operand prints one level below it.
	return goExpr{paren: true, at: func(d int) string {
		texts := make([]string, len(parts))
		for i, g := range parts {
			texts[i] = g.operand(d + 1)
		}
		return strings.Join(texts, " "+op+" ")
	}}, nil
}

// emitNum renders a numeric literal; float renderings always carry a
// decimal point or exponent so the Go constant stays typed float64.
func emitNum(x symbolic.Num) (string, Kind) {
	if x.IsInt {
		return strconv.FormatInt(int64(x.V), 10), KInt
	}
	s := strconv.FormatFloat(x.V, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s, KFloat
}

func emitExpr(e symbolic.Expr, leaf func(FieldRef) (GoLeaf, error)) (goExpr, Kind, error) {
	switch x := e.(type) {
	case symbolic.Num:
		s, k := emitNum(x)
		return goText(s), k, nil
	case symbolic.Bool:
		if x.V {
			return goText("true"), KBool, nil
		}
		return goText("false"), KBool, nil
	case symbolic.Extent:
		ref, ok := ParseFieldRef(x.ID)
		if !ok {
			return goExpr{}, 0, fmt.Errorf("cond: extent constant %s is not a guardable field reference", x.ID)
		}
		l, err := leaf(ref)
		if err != nil {
			return goExpr{}, 0, err
		}
		return goText(l.Expr), l.Kind, nil
	case *symbolic.Neg:
		g, kind, err := emitExpr(x.X, leaf)
		if err != nil {
			return goExpr{}, 0, err
		}
		if kind == KBool {
			return goExpr{}, 0, fmt.Errorf("cond: negation of bool operand")
		}
		return goUnary("-", g), kind, nil
	case *symbolic.Not:
		g, kind, err := emitExpr(x.X, leaf)
		if err != nil {
			return goExpr{}, 0, err
		}
		if kind != KBool {
			return goExpr{}, 0, fmt.Errorf("cond: ! of %s operand", kind)
		}
		return goUnary("!", g), KBool, nil
	case *symbolic.Bin:
		l, lk, err := emitExpr(x.L, leaf)
		if err != nil {
			return goExpr{}, 0, err
		}
		r, rk, err := emitExpr(x.R, leaf)
		if err != nil {
			return goExpr{}, 0, err
		}
		return emitCompare(x.Op, l, lk, r, rk)
	case *symbolic.Nary:
		if len(x.Args) == 0 {
			return goExpr{}, 0, fmt.Errorf("cond: empty %s application", x.Op)
		}
		g, kind, err := emitExpr(x.Args[0], leaf)
		if err != nil {
			return goExpr{}, 0, err
		}
		for _, a := range x.Args[1:] {
			r, rk, err2 := emitExpr(a, leaf)
			if err2 != nil {
				return goExpr{}, 0, err2
			}
			g, kind, err = emitCombine(x.Op, g, kind, r, rk)
			if err != nil {
				return goExpr{}, 0, err
			}
		}
		return g, kind, nil
	}
	return goExpr{}, 0, fmt.Errorf("cond: expression %s is outside the guardable fragment", e.Key())
}

// promote renders the operand pair at a common numeric kind. A
// conversion keeps its operand's depth.
func promote(l goExpr, lk Kind, r goExpr, rk Kind) (goExpr, goExpr, Kind) {
	if lk == rk {
		return l, r, lk
	}
	toFloat := func(g goExpr) goExpr {
		return goExpr{at: func(d int) string { return "float64(" + g.operand(d) + ")" }}
	}
	if lk == KInt {
		l = toFloat(l)
	}
	if rk == KInt {
		r = toFloat(r)
	}
	return l, r, KFloat
}

func emitCombine(op symbolic.Op, l goExpr, lk Kind, r goExpr, rk Kind) (goExpr, Kind, error) {
	switch op {
	case symbolic.OpAnd, symbolic.OpOr:
		if lk != KBool || rk != KBool {
			return goExpr{}, 0, fmt.Errorf("cond: %s over %s/%s operands", op, lk, rk)
		}
		return goBinary(l, op.String(), r, false), KBool, nil
	case symbolic.OpAdd, symbolic.OpMul:
		if lk == KBool || rk == KBool {
			return goExpr{}, 0, fmt.Errorf("cond: %s over %s/%s operands", op, lk, rk)
		}
		l, r, k := promote(l, lk, r, rk)
		bin := goBinary(l, op.String(), r, true)
		if k == KFloat {
			// The fence is a conversion, not parentheses: the depth stays.
			return goExpr{at: func(d int) string { return "float64(" + bin.at(d) + ")" }}, k, nil
		}
		return bin, k, nil
	}
	return goExpr{}, 0, fmt.Errorf("cond: operator %s is outside the guardable fragment", op)
}

func emitCompare(op symbolic.Op, l goExpr, lk Kind, r goExpr, rk Kind) (goExpr, Kind, error) {
	switch op {
	case symbolic.OpEq, symbolic.OpNe:
		if lk == KBool && rk == KBool {
			return goBinary(l, op.String(), r, false), KBool, nil
		}
		fallthrough
	case symbolic.OpLt, symbolic.OpLe, symbolic.OpGt, symbolic.OpGe:
		if lk == KBool || rk == KBool {
			return goExpr{}, 0, fmt.Errorf("cond: %s over %s/%s operands", op, lk, rk)
		}
		l, r, _ = promote(l, lk, r, rk)
		return goBinary(l, op.String(), r, false), KBool, nil
	}
	return goExpr{}, 0, fmt.Errorf("cond: operator %s is outside the guardable fragment", op)
}
