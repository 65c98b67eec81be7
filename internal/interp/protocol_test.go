package interp_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// sameValue reports whether two results are bit-identical: same kind,
// same payload (a NaN's bits included).
func sameValue(a, b interp.Value) bool {
	return a.Kind() == b.Kind() && a.Int() == b.Int() && a.Bool() == b.Bool() &&
		math.Float64bits(a.Float()) == math.Float64bits(b.Float()) && a.Object() == b.Object()
}

// TestStaticKernelsMatchWalker runs every strict operator and every
// compound form over each pairing of int and double on both engines,
// on edge values, and requires bit-identical results and identical
// errors. The compiled engine picks each kernel by the operands' static
// types; the walker tests kinds at run time. Each binary operator is
// also reached through a call that passes ints to its parameters, so a
// direct call that skipped the parameter coercion would hand a typed
// kernel the wrong kind.
func TestStaticKernelsMatchWalker(t *testing.T) {
	ints := []interp.Value{}
	for _, i := range []int64{0, 1, -1, 7, -3, math.MaxInt64, math.MinInt64, 1<<53 + 1} {
		ints = append(ints, interp.IntValue(i))
	}
	doubles := []interp.Value{}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1.5, -2.25, 5e-324, 0x1p-1030, math.MaxFloat64, 1 << 53} {
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
	for _, op := range []string{"+=", "-=", "*=", "/="} {
		for pi, p := range pairs {
			// The compound forms: a local, a this field, an array element.
			name := fmt.Sprintf("c%d_%d", len(methods), pi)
			fmt.Fprintf(&decls, "  %[1]s %[2]sl(%[1]s a, %[3]s b);\n  %[1]s %[2]sf(%[1]s a, %[3]s b);\n  %[1]s %[2]se(%[1]s a, %[3]s b);\n", p.a, name, p.b)
			fmt.Fprintf(&defs, "%[1]s k::%[2]sl(%[1]s a, %[3]s b) { a %[4]s b; return a; }\n", p.a, name, p.b, op)
			fmt.Fprintf(&defs, "%[1]s k::%[2]sf(%[1]s a, %[3]s b) { f_%[1]s = a; f_%[1]s %[4]s b; return f_%[1]s; }\n", p.a, name, p.b, op)
			fmt.Fprintf(&defs, "%[1]s k::%[2]se(%[1]s a, %[3]s b) { e_%[1]s[1] = a; e_%[1]s[1] %[4]s b; return e_%[1]s[1]; }\n", p.a, name, p.b, op)
			for _, form := range "lfe" {
				methods = append(methods, method{name + string(form), p})
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
	if checked < 5000 {
		t.Fatalf("checked %d operand pairs, want the full table", checked)
	}
}

const frameStackSrc = `
class node {
public:
  node *next;
  int v;
  int nullAt(int d);
  int spin(int d);
  int count(int d);
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
void main() { }
`

// TestFrameStackUnwinds: a call that fails three activations deep on a
// NULL dereference (in an argument, after the callee's frame is pushed)
// and one that hits MaxDepth leave the context with no depth and an
// empty activation stack, and a call after them behaves exactly as it
// does on a fresh context, with or without an Invoke hook.
func TestFrameStackUnwinds(t *testing.T) {
	prog := compile(t, frameStackSrc)
	for _, e := range benchEngines {
		for _, hooked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hooked=%v", e.name, hooked), func(t *testing.T) {
				ip := interp.NewEngine(prog, nil, e.eng)
				recv := ip.Globals["N"]
				call := func(ctx *interp.Ctx, name string, arg int64) (interp.Value, error) {
					return ip.Call(ctx, prog.MethodByFullName("node::"+name), recv, []interp.Value{interp.IntValue(arg)})
				}
				ctx := ip.NewCtx()
				ctx.MaxDepth = 64
				if hooked {
					ctx.Invoke = func(site *types.CallSite, recv *interp.Object, args []interp.Value) (interp.Value, error) {
						return ip.Call(ctx, site.Callee, recv, args)
					}
				}
				settled := func(after string) {
					t.Helper()
					if ctx.Depth != 0 || ctx.StackHeight() != 0 {
						t.Errorf("after %s: depth %d, stack height %d, want 0 and 0", after, ctx.Depth, ctx.StackHeight())
					}
				}
				if _, err := call(ctx, "nullAt", 1); err == nil || !strings.Contains(err.Error(), "NULL dereference") {
					t.Fatalf("nullAt: err = %v, want a NULL dereference", err)
				}
				settled("a NULL dereference at depth 3")
				if _, err := call(ctx, "spin", 0); err == nil || !strings.Contains(err.Error(), "recursion depth limit of 64") {
					t.Fatalf("spin: err = %v, want the depth limit", err)
				}
				settled("the depth limit")

				cost, steps := ctx.Cost, ctx.Steps()
				got, err := call(ctx, "count", 5)
				settled("a successful call")
				fresh := ip.NewCtx()
				want, werr := call(fresh, "count", 5)
				if err != nil || werr != nil || !sameValue(got, want) || got.Int() != 5 {
					t.Fatalf("count(5) = %v (%v) on the reused context, %v (%v) on a fresh one, want 5", got.Any(), err, want.Any(), werr)
				}
				if ctx.Cost-cost != fresh.Cost || ctx.Steps()-steps != fresh.Steps() {
					t.Errorf("count(5) charged %d units in %d steps on the reused context, %d in %d on a fresh one",
						ctx.Cost-cost, ctx.Steps()-steps, fresh.Cost, fresh.Steps())
				}
			})
		}
	}
}

// TestNilReceiverRejectedAtEntry: Interp.Call refuses a class method
// without a receiver on both engines, with one error, before anything
// runs, and the context stays usable.
func TestNilReceiverRejectedAtEntry(t *testing.T) {
	prog := compile(t, frameStackSrc)
	m := prog.MethodByFullName("node::count")
	var errs []string
	for _, e := range benchEngines {
		ip := interp.NewEngine(prog, nil, e.eng)
		ctx := ip.NewCtx()
		_, err := ip.Call(ctx, m, nil, []interp.Value{interp.IntValue(2)})
		if err == nil {
			t.Fatalf("%s: a nil receiver was accepted", e.name)
		}
		errs = append(errs, err.Error())
		if ctx.Cost != 0 || ctx.Depth != 0 || ctx.StackHeight() != 0 {
			t.Errorf("%s: the rejected call charged %d units, left depth %d and %d frames", e.name, ctx.Cost, ctx.Depth, ctx.StackHeight())
		}
		if v, err := ip.Call(ctx, m, ip.Globals["N"], []interp.Value{interp.IntValue(2)}); err != nil || v.Int() != 2 {
			t.Errorf("%s: the context is unusable after the rejection: %v, %v", e.name, v.Any(), err)
		}
	}
	if errs[0] != errs[1] || errs[0] != "node::count called without a receiver" {
		t.Errorf("errors %q, want one message naming the method", errs)
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
