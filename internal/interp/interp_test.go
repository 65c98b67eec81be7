package interp_test

import (
	"bytes"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

func compile(t testing.TB, source string) *types.Program {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

func TestRunSimplePrograms(t *testing.T) {
	prog := compile(t, `
class acc {
public:
  int n;
  double d;
  void bump(int k);
  int get();
};
void acc::bump(int k) { n = n + k; d = d + 0.5; }
int acc::get() { return n; }
acc A;
void main() {
  int i;
  for (i = 0; i < 10; i++)
    A.bump(i);
  print("n =", A.get());
}
`)
	var out bytes.Buffer
	ip := interp.New(prog, &out)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := strings.TrimSpace(out.String()); got != "n = 45" {
		t.Errorf("output = %q, want %q", got, "n = 45")
	}
}

func TestControlFlowAndOperators(t *testing.T) {
	prog := compile(t, `
class m {
public:
  int r;
  double f;
  boolean b;
  void run();
};
m M;
void m::run() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < 5) {
    if (i % 2 == 0)
      s = s + i;
    else
      s = s - 1;
    i++;
  }
  r = s;                    // 0 - 1 + 2 - 1 + 4 = 4
  f = sqrt(16.0) + fabs(-2.5) + pow(2.0, 3.0) + floor(1.9);
  b = (1 < 2) && !(3 <= 2) || FALSE;
}
void main() { M.run(); }
`)
	var out bytes.Buffer
	ip := interp.New(prog, &out)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("run: %v", err)
	}
	M := ip.Globals["M"]
	cl := prog.Classes["m"]
	if got := M.Slots[ip.FieldSlot(cl, "m", "r")]; got.Any() != int64(4) {
		t.Errorf("r = %v, want 4", got)
	}
	if got := M.Slots[ip.FieldSlot(cl, "m", "f")]; got.Any() != float64(4+2.5+8+1) {
		t.Errorf("f = %v, want 15.5", got)
	}
	if got := M.Slots[ip.FieldSlot(cl, "m", "b")]; got.Any() != true {
		t.Errorf("b = %v, want true", got)
	}
}

func TestGraphTraversalSerial(t *testing.T) {
	prog := compile(t, src.Graph)
	ip := interp.New(prog, nil)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("run: %v", err)
	}
	// After the traversal every reachable node is marked, and the total
	// of sums equals the sum over visited edges of val(parent).
	b := ip.Globals["Builder"]
	builderCl := prog.Classes["builder"]
	graphCl := prog.Classes["graph"]
	nodesArr := b.Slots[ip.FieldSlot(builderCl, "builder", "nodes")].Array()
	n := b.Slots[ip.FieldSlot(builderCl, "builder", "numnodes")].Int()
	if n != 64 {
		t.Fatalf("numnodes = %d", n)
	}
	root := b.Slots[ip.FieldSlot(builderCl, "builder", "root")].Object()
	if !root.Slots[ip.FieldSlot(graphCl, "graph", "mark")].Bool() {
		t.Error("root should be marked after traversal")
	}
	marked := 0
	for i := int64(0); i < n; i++ {
		node := nodesArr.Elems[i].Object()
		if node.Slots[ip.FieldSlot(graphCl, "graph", "mark")].Bool() {
			marked++
		}
	}
	if marked == 0 {
		t.Error("no nodes marked")
	}
}

func TestBarnesHutSerial(t *testing.T) {
	prog := compile(t, src.BarnesHut)
	ip := interp.New(prog, nil)
	ctx := ip.NewCtx()
	if err := ip.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Physics sanity: every body has a finite nonzero potential and the
	// tree root aggregates (close to) the total mass.
	nb := ip.Globals["Nbody"]
	nbodyCl := prog.Classes["nbody"]
	bodyCl := prog.Classes["body"]
	nodeCl := prog.Classes["node"]
	n := nb.Slots[ip.FieldSlot(nbodyCl, "nbody", "numbodies")].Int()
	if n != 256 {
		t.Fatalf("numbodies = %d", n)
	}
	bodies := nb.Slots[ip.FieldSlot(nbodyCl, "nbody", "bodies")].Array()
	nonzero := 0
	for i := int64(0); i < n; i++ {
		b := bodies.Elems[i].Object()
		phi := b.Slots[ip.FieldSlot(bodyCl, "body", "phi")].Float()
		if phi != 0 {
			nonzero++
		}
	}
	if nonzero < int(n)/2 {
		t.Errorf("only %d/%d bodies have nonzero potential", nonzero, n)
	}
	root := nb.Slots[ip.FieldSlot(nbodyCl, "nbody", "BH_root")].Object()
	mass := root.Slots[ip.FieldSlot(root.Class, "node", "mass")].Float()
	if mass < 0.99 || mass > 1.01 {
		t.Errorf("root mass = %v, want ≈1.0", mass)
	}
	_ = nodeCl
	// Cost units come from the walker; compiled code charges none.
	if ctx.Cost != 0 {
		t.Errorf("the compiled engine charged %d units, want none", ctx.Cost)
	}
	walk := interp.NewEngine(prog, nil, interp.EngineWalk)
	wctx := walk.NewCtx()
	if err := walk.Run(wctx); err != nil {
		t.Fatalf("walker run: %v", err)
	}
	if wctx.Cost == 0 {
		t.Error("the walker's cost accounting recorded nothing")
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`
class a { public: int x; void m(); };
a A;
void a::m() { x = 1 / (x - x); }
void main() { A.m(); }
`, "division by zero"},
		{`
class a { public: int v[4]; void m(); };
a A;
void a::m() { v[7] = 1; }
void main() { A.m(); }
`, "out of range"},
		{`
class a { public: a *p; int x; void m(); };
a A;
void a::m() { x = p->x; }
void main() { A.m(); }
`, "NULL dereference"},
	}
	for _, tc := range cases {
		prog := compile(t, tc.src)
		ip := interp.New(prog, nil)
		err := ip.Run(ip.NewCtx())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want error containing %q, got %v", tc.want, err)
		}
	}
}

func TestDynamicCastAtRuntime(t *testing.T) {
	prog := compile(t, `
class node { public: double mass; };
class cell : public node { public: int k; };
class leaf : public node { public: int q; };
class w {
public:
  int isCell;
  int isLeaf;
  void test(node *n);
};
w W;
void w::test(node *n) {
  cell *c;
  leaf *l;
  c = dynamic_cast<cell*>(n);
  if (c != NULL) isCell = isCell + 1;
  l = dynamic_cast<leaf*>(n);
  if (l != NULL) isLeaf = isLeaf + 1;
}
void main() {
  W.test(new cell);
  W.test(new leaf);
  W.test(new cell);
}
`)
	ip := interp.New(prog, nil)
	if err := ip.Run(ip.NewCtx()); err != nil {
		t.Fatalf("run: %v", err)
	}
	W := ip.Globals["W"]
	cl := prog.Classes["w"]
	if got := W.Slots[ip.FieldSlot(cl, "w", "isCell")]; got.Any() != int64(2) {
		t.Errorf("isCell = %v, want 2", got)
	}
	if got := W.Slots[ip.FieldSlot(cl, "w", "isLeaf")]; got.Any() != int64(1) {
		t.Errorf("isLeaf = %v, want 1", got)
	}
}
