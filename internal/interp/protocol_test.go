package interp_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// sameValue reports whether two results are bit-identical: same kind,
// same payload (a NaN's bits included).
func sameValue(a, b interp.Value) bool {
	return a.Kind() == b.Kind() && a.Int() == b.Int() && a.Bool() == b.Bool() &&
		math.Float64bits(a.Float()) == math.Float64bits(b.Float()) && a.Object() == b.Object()
}

// TestStaticKernelsMatchWalker runs every strict operator, unary minus,
// and every plain and compound assignment over each pairing of int and
// double on both engines, on edge values, and requires bit-identical
// results and identical errors. The compiled engine lowers each
// expression to the kind its static type fixes; the walker tests kinds
// at run time. Each assignment form runs on a local, a this field, an
// element of this, o->f and o->e[i], both as a statement and as a
// value. Each binary operator is also reached through a call that passes ints to
// its parameters, so a direct call that skipped the parameter coercion
// would hand a typed closure the wrong kind.
func TestStaticKernelsMatchWalker(t *testing.T) {
	ints := []interp.Value{}
	for _, i := range []int64{0, 1, -1, 7, -3, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1} {
		ints = append(ints, interp.IntValue(i))
	}
	doubles := []interp.Value{}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1.5, -2.25, 5e-324, 0x1p-1030, math.MaxFloat64, 1 << 53, 1<<53 + 2} {
		doubles = append(doubles, interp.FloatValue(f))
	}
	type pair struct{ a, b string }
	pairs := []pair{{"int", "int"}, {"double", "double"}, {"int", "double"}, {"double", "int"}}
	vals := map[string][]interp.Value{"int": ints, "double": doubles}
	arith := func(p pair) string {
		if p.a == "double" || p.b == "double" {
			return "double"
		}
		return "int"
	}

	var decls, defs strings.Builder
	type method struct {
		name string
		p    pair
	}
	var methods, wrappers []method
	for _, op := range []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="} {
		for pi, p := range pairs {
			if op == "%" && p != (pair{"int", "int"}) {
				continue
			}
			ret := arith(p)
			if strings.ContainsAny(op, "<>=!") {
				ret = "boolean"
			}
			name := fmt.Sprintf("b%d_%d", len(methods), pi)
			fmt.Fprintf(&decls, "  %s %s(%s a, %s b);\n  %s w%s(int a, int b);\n", ret, name, p.a, p.b, ret, name)
			fmt.Fprintf(&defs, "%s k::%s(%s a, %s b) { return a %s b; }\n", ret, name, p.a, p.b, op)
			fmt.Fprintf(&defs, "%s k::w%s(int a, int b) { return %s(a, b); }\n", ret, name, name)
			methods = append(methods, method{name, p})
			wrappers = append(wrappers, method{"w" + name, pair{"int", "int"}})
		}
	}
	for _, t := range []string{"int", "double"} {
		// Unary minus: MinInt64 wraps, -0.0 flips its sign.
		name := "n" + t
		fmt.Fprintf(&decls, "  %[1]s %[2]s(%[1]s a, %[1]s b);\n", t, name)
		fmt.Fprintf(&defs, "%[1]s k::%[2]s(%[1]s a, %[1]s b) { return -a; }\n", t, name)
		methods = append(methods, method{name, pair{t, t}})
	}
	// The assignment targets, as a method body writes them: a parameter,
	// a this field, an element of this, a field and an element through a
	// local pointer.
	targets := []struct{ key, lhs string }{
		{"l", "a"}, {"f", "f_T"}, {"e", "e_T[1]"}, {"o", "o->f_T"}, {"oe", "o->e_T[1]"},
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/="} {
		for pi, p := range pairs {
			for _, tg := range targets {
				lhs := strings.ReplaceAll(tg.lhs, "T", p.a)
				init := ""
				if tg.key != "l" {
					init = lhs + " = a; "
				}
				name := fmt.Sprintf("c%d_%d%s", len(methods), pi, tg.key)
				// As a statement: the target holds the coerced result.
				fmt.Fprintf(&decls, "  %[1]s %[2]ss(%[1]s a, %[3]s b);\n", p.a, name, p.b)
				fmt.Fprintf(&defs, "%[1]s k::%[2]ss(%[1]s a, %[3]s b) { k *o; o = this; %[4]s%[5]s %[6]s b; return %[5]s; }\n",
					p.a, name, p.b, init, lhs, op)
				// As a value: the right side as computed, uncoerced.
				fmt.Fprintf(&decls, "  %[1]s %[2]sv(%[3]s a, %[4]s b);\n", arith(p), name, p.a, p.b)
				fmt.Fprintf(&defs, "%[1]s k::%[2]sv(%[3]s a, %[4]s b) { k *o; o = this; %[5]sreturn (%[6]s %[7]s b); }\n",
					arith(p), name, p.a, p.b, init, lhs, op)
				methods = append(methods, method{name + "s", p}, method{name + "v", p})
			}
		}
	}
	source := "class k {\npublic:\n  int f_int;\n  double f_double;\n  int e_int[2];\n  double e_double[2];\n" +
		decls.String() + "};\n" + defs.String() + "k K;\nvoid main() { }\n"
	prog := compile(t, source)

	walk := interp.NewEngine(prog, nil, interp.EngineWalk)
	comp := interp.NewEngine(prog, nil, interp.EngineCompiled)
	wctx, cctx := walk.NewCtx(), comp.NewCtx()
	checked := 0
	for _, m := range append(methods, wrappers...) {
		pm := prog.MethodByFullName("k::" + m.name)
		for _, a := range vals[m.p.a] {
			for _, b := range vals[m.p.b] {
				args := []interp.Value{a, b}
				wv, werr := walk.Call(wctx, pm, walk.Globals["K"], args)
				cv, cerr := comp.Call(cctx, pm, comp.Globals["K"], args)
				if fmt.Sprint(werr) != fmt.Sprint(cerr) || !sameValue(wv, cv) {
					t.Errorf("%s(%v, %v): walker %v (%v), compiled %v (%v)",
						m.name, a.Any(), b.Any(), wv.Any(), werr, cv.Any(), cerr)
				}
				checked++
			}
		}
	}
	if checked < 25000 {
		t.Fatalf("checked %d operand pairs, want the full table", checked)
	}
}

const frameStackSrc = `
const int NDIM = 3;
class vec {
public:
  double val[NDIM];
};
class node {
public:
  node *next;
  int v;
  vec pos;
  double acc[NDIM];
  int nullAt(int d);
  int spin(int d);
  int count(int d);
  double chain(int d);
  double bump(int d);
  int div(int d);
  int loop(int d);
  int hop(int d);
  int bounded(int d);
  int nudge(int d);
  int poke(int d);
};
node N;
int node::nullAt(int d) {
  if (d == 3)
    return nullAt(next->v);
  return nullAt(d + 1);
}
int node::spin(int d) { return spin(d + 1); }
int node::count(int d) {
  if (d == 0)
    return v;
  return count(d - 1) + 1;
}
double node::chain(int d) {
  if (d == 3)
    return next->pos.val[1] * 2.0;
  return chain(d + 1);
}
double node::bump(int d) {
  if (d == 3) {
    acc[d] += 1.5;
    return acc[0];
  }
  return bump(d + 1);
}
int node::div(int d) {
  if (d == 3)
    return (d + 1) / v;
  return div(d + 1);
}
int node::loop(int d) {
  int s;
  if (d < 3)
    return loop(d + 1);
  while (TRUE)
    s += d;
  return s;
}
int node::hop(int d) { return hop(d + 1); }
int node::bounded(int d) {
  int s;
  if (d < 3)
    return bounded(d + 1);
  for (int i = 0; i < next->v; i++)
    s += i;
  return s;
}
int node::nudge(int d) {
  if (d == 3) {
    next->v += d;
    return v;
  }
  return nudge(d + 1);
}
int node::poke(int d) {
  if (d == 3) {
    next->v = d;
    return v;
  }
  return poke(d + 1);
}
void main() { }
`

// TestFrameStackUnwinds: a call that fails three activations deep —
// on a NULL dereference in an argument, after the callee's frame is
// pushed; on NULL in a double field chain; on an element out of range
// in a fused a[i] += x; on NULL in a fused o->f += x and o->f = x; on an
// int / 0; on MaxSteps or Interrupt inside a fused assignment; on an
// Invoke hook's error; on a for bound that fails under a ForLoop hook
// (which the loop then does not offer) — and one that hits MaxDepth
// fail with one error text on both engines and leave the context with
// no depth and an empty activation stack, and a call after them behaves
// exactly as it does on a fresh context, with or without an Invoke hook:
// the same steps on both engines, and on the walker, the one engine that
// charges cost units, the same units.
func TestFrameStackUnwinds(t *testing.T) {
	prog := compile(t, frameStackSrc)
	refused := errors.New("the hook refused hop(3)")
	rows := []struct {
		method, want string
		// arm readies ctx for the row; offered reports a ForLoop offer.
		arm func(ip *interp.Interp, ctx *interp.Ctx, offered *bool)
	}{
		{method: "nullAt", want: "NULL dereference"},
		{method: "spin", want: "recursion depth limit of 64"},
		{method: "chain", want: "NULL dereference"},
		{method: "bump", want: "index 3 out of range [0,3)"},
		{method: "nudge", want: "NULL dereference"},
		{method: "poke", want: "field store on non-object"},
		{method: "div", want: "integer division by zero"},
		{method: "loop", want: "step budget of 1000 statements exhausted",
			arm: func(_ *interp.Interp, ctx *interp.Ctx, _ *bool) { ctx.MaxSteps = 1000 }},
		{method: "loop", want: "interrupted",
			arm: func(_ *interp.Interp, ctx *interp.Ctx, _ *bool) {
				ctx.Interrupt = func() error { return errors.New("interrupted") }
			}},
		{method: "hop", want: refused.Error(),
			arm: func(ip *interp.Interp, ctx *interp.Ctx, _ *bool) {
				ctx.Invoke = func(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
					if args[0].Int() == 3 {
						return interp.Value{}, refused
					}
					return ip.Call(ctx, site.Callee, recv, args)
				}
			}},
		{method: "bounded", want: "NULL dereference",
			arm: func(_ *interp.Interp, ctx *interp.Ctx, offered *bool) {
				ctx.ForLoop = func(*ast.ForStmt, *interp.Frame, int64, int64, int64) (bool, error) {
					*offered = true
					return false, nil
				}
			}},
	}
	texts := map[string][]string{} // per row and hook, each engine's error
	for _, e := range benchEngines {
		for _, hooked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hooked=%v", e.name, hooked), func(t *testing.T) {
				for i, row := range rows {
					ip := interp.NewEngine(prog, nil, e.eng)
					recv := ip.Globals["N"]
					call := func(ctx *interp.Ctx, name string, arg int64) (interp.Value, error) {
						return ip.Call(ctx, prog.MethodByFullName("node::"+name), recv, []interp.Value{interp.IntValue(arg)})
					}
					ctx := ip.NewCtx()
					ctx.MaxDepth = 64
					var hook func(*types.CallSite, *interp.Object, []interp.Value) (interp.Value, error)
					if hooked {
						hook = func(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
							return ip.Call(ctx, site.Callee, recv, args)
						}
					}
					ctx.Invoke = hook
					offered := false
					if row.arm != nil {
						row.arm(ip, ctx, &offered)
					}
					_, err := call(ctx, row.method, 0)
					if err == nil || !strings.Contains(err.Error(), row.want) {
						t.Errorf("%s: err = %v, want %q", row.method, err, row.want)
						continue
					}
					key := fmt.Sprintf("%s (row %d, hooked=%v)", row.method, i, hooked)
					texts[key] = append(texts[key], err.Error())
					if offered {
						t.Errorf("%s: a loop whose bound fails was offered to ForLoop", row.method)
					}
					if ctx.Depth != 0 || ctx.StackHeight() != 0 {
						t.Errorf("after %s: depth %d, stack height %d, want 0 and 0", row.method, ctx.Depth, ctx.StackHeight())
					}

					ctx.MaxSteps, ctx.Interrupt, ctx.ForLoop, ctx.Invoke = 0, nil, nil, hook
					cost, steps := ctx.Cost, ctx.Steps()
					got, err := call(ctx, "count", 5)
					fresh := ip.NewCtx()
					want, werr := call(fresh, "count", 5)
					if err != nil || werr != nil || !sameValue(got, want) || got.Int() != 5 {
						t.Errorf("after %s: count(5) = %v (%v) on the reused context, %v (%v) on a fresh one, want 5",
							row.method, got.Any(), err, want.Any(), werr)
						continue
					}
					if e.eng == interp.EngineWalk && ctx.Cost-cost != fresh.Cost || ctx.Steps()-steps != fresh.Steps() {
						t.Errorf("after %s: count(5) charged %d units in %d steps on the reused context, %d in %d on a fresh one",
							row.method, ctx.Cost-cost, ctx.Steps()-steps, fresh.Cost, fresh.Steps())
					}
					if ctx.Depth != 0 || ctx.StackHeight() != 0 {
						t.Errorf("after %s and count(5): depth %d, stack height %d", row.method, ctx.Depth, ctx.StackHeight())
					}
				}
			})
		}
	}
	for key, errs := range texts {
		if len(errs) == 2 && errs[0] != errs[1] {
			t.Errorf("%s: the engines fail with %q and %q", key, errs[0], errs[1])
		}
	}
}

// TestNilReceiverRejectedAtEntry: Interp.Call refuses a class method
// without a receiver, and a call with one argument too few or too many,
// on both engines, with one error, before anything runs — no step
// counted, and on the walker no unit charged — and the context stays
// usable.
func TestNilReceiverRejectedAtEntry(t *testing.T) {
	prog := compile(t, frameStackSrc)
	m := prog.MethodByFullName("node::count")
	two := []interp.Value{interp.IntValue(2)}
	rows := []struct {
		recv bool
		args []interp.Value
		want string
	}{
		{false, two, "node::count called without a receiver"},
		{true, nil, "node::count takes 1 arguments, called with 0"},
		{true, append(two, two...), "node::count takes 1 arguments, called with 2"},
	}
	for _, row := range rows {
		for _, e := range benchEngines {
			ip := interp.NewEngine(prog, nil, e.eng)
			ctx := ip.NewCtx()
			var recv *interp.Object
			if row.recv {
				recv = ip.Globals["N"]
			}
			_, err := ip.Call(ctx, m, recv, row.args)
			if err == nil || err.Error() != row.want {
				t.Fatalf("%s: err = %v, want %q", e.name, err, row.want)
			}
			if e.eng == interp.EngineWalk && ctx.Cost != 0 || ctx.Steps() != 0 || ctx.Depth != 0 || ctx.StackHeight() != 0 {
				t.Errorf("%s: the rejected call charged %d units in %d steps, left depth %d and %d frames", e.name, ctx.Cost, ctx.Steps(), ctx.Depth, ctx.StackHeight())
			}
			if v, err := ip.Call(ctx, m, ip.Globals["N"], two); err != nil || v.Int() != 2 {
				t.Errorf("%s: the context is unusable after the rejection: %v, %v", e.name, v.Any(), err)
			}
		}
	}
}

// TestRecycleRetakesAbandonedFrames: a panic recovered above a call
// abandons its frames on the context's stack; Recycle pops and zeroes
// them, so the next activation takes them again clean.
func TestRecycleRetakesAbandonedFrames(t *testing.T) {
	const source = `
class m {
public:
  int outer(int d);
  int inner(int d);
};
m M;
int m::outer(int d) {
  int x;
  x = d + 41;
  return inner(x);
}
int m::inner(int d) { return d; }
void main() { }
`
	prog := compile(t, source)
	ip := interp.New(prog, nil)
	outer := prog.MethodByFullName("m::outer")
	ctx := ip.NewCtx()
	ctx.Invoke = func(*types.CallSite, *interp.Object, []interp.Value) (interp.Value, error) { panic("hook") }
	func() {
		defer func() { recover() }()
		ip.Call(ctx, outer, ip.Globals["M"], []interp.Value{interp.IntValue(1)})
	}()
	if ctx.StackHeight() != 2 {
		t.Fatalf("the panic left %d frames, want outer's and inner's", ctx.StackHeight())
	}
	ctx.Recycle(0)
	if ctx.StackHeight() != 0 || ctx.Depth != 0 || !ctx.FreeFramesZero() {
		t.Fatalf("after Recycle: %d frames, depth %d, free frames zero %v", ctx.StackHeight(), ctx.Depth, ctx.FreeFramesZero())
	}
	ctx.Invoke = nil
	if v, err := ip.Call(ctx, outer, ip.Globals["M"], []interp.Value{interp.IntValue(1)}); err != nil || v.Int() != 42 {
		t.Fatalf("outer(1) after Recycle = %v, %v, want 42", v.Any(), err)
	}
	if ctx.StackHeight() != 0 || !ctx.FreeFramesZero() {
		t.Errorf("after a clean call: %d frames, free frames zero %v", ctx.StackHeight(), ctx.FreeFramesZero())
	}
}
