package rt_test

import (
	"math"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/codegen"
	"commute/internal/frontend/types"
	"commute/internal/interp"
	"commute/internal/rt"
)

func build(t testing.TB, source string) (*types.Program, *codegen.Plan) {
	t.Helper()
	prog, plan := planAsBuilt(t, source, codegen.Options{})
	return prog, clearWork(plan)
}

// clearWork drops a plan's static work estimates, so that every region
// root opens its region however small the program: the tests built on
// build, buildCond and buildSpec exercise the region machinery on tiny
// programs, which the granularity cutoff would run serially
// (decline_test.go tests the cutoff, on plans as built).
func clearWork(p *codegen.Plan) *codegen.Plan {
	for _, mp := range p.Methods {
		mp.Work = 0
	}
	return p
}

// graphSums runs the graph program and returns each node's sum plus the
// mark count.
func graphSums(t *testing.T, prog *types.Program, ip *interp.Interp) ([]int64, int) {
	t.Helper()
	b := ip.Globals["Builder"]
	builderCl := prog.Classes["builder"]
	graphCl := prog.Classes["graph"]
	nodes := b.Slots[ip.FieldSlot(builderCl, "builder", "nodes")].Array()
	n := b.Slots[ip.FieldSlot(builderCl, "builder", "numnodes")].Int()
	sums := make([]int64, n)
	marked := 0
	for i := int64(0); i < n; i++ {
		node := nodes.Elems[i].Object()
		sums[i] = node.Slots[ip.FieldSlot(graphCl, "graph", "sum")].Int()
		if node.Slots[ip.FieldSlot(graphCl, "graph", "mark")].Bool() {
			marked++
		}
	}
	return sums, marked
}

// TestGraphParallelMatchesSerial: the §2 claim — parallel execution of
// the commuting traversal produces exactly the serial result (integer
// sums are order-insensitive).
func TestGraphParallelMatchesSerial(t *testing.T) {
	prog, plan := build(t, src.Graph)

	ipSerial := interp.New(prog, nil)
	if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	wantSums, wantMarked := graphSums(t, prog, ipSerial)

	for _, workers := range []int{1, 2, 4, 8} {
		ip := interp.New(prog, nil)
		r := rt.New(ip, plan, workers)
		if err := r.Run(); err != nil {
			t.Fatalf("parallel run (%d workers): %v", workers, err)
		}
		gotSums, gotMarked := graphSums(t, prog, ip)
		if gotMarked != wantMarked {
			t.Errorf("workers=%d: marked %d, want %d", workers, gotMarked, wantMarked)
		}
		for i := range wantSums {
			if gotSums[i] != wantSums[i] {
				t.Errorf("workers=%d: node %d sum = %d, want %d", workers, i, gotSums[i], wantSums[i])
			}
		}
		if workers > 1 && r.Stats.Tasks == 0 {
			t.Errorf("workers=%d: no tasks spawned", workers)
		}
		if r.Stats.Regions == 0 {
			t.Errorf("workers=%d: no parallel regions", workers)
		}
	}
}

// bhState extracts each body's phi and position for comparison.
func bhState(prog *types.Program, ip *interp.Interp) ([]float64, [][3]float64) {
	nb := ip.Globals["Nbody"]
	nbodyCl := prog.Classes["nbody"]
	bodyCl := prog.Classes["body"]
	nodeCl := prog.Classes["node"]
	n := nb.Slots[ip.FieldSlot(nbodyCl, "nbody", "numbodies")].Int()
	bodies := nb.Slots[ip.FieldSlot(nbodyCl, "nbody", "bodies")].Array()
	phis := make([]float64, n)
	poss := make([][3]float64, n)
	for i := int64(0); i < n; i++ {
		b := bodies.Elems[i].Object()
		phis[i] = b.Slots[ip.FieldSlot(bodyCl, "body", "phi")].Float()
		pos := b.Slots[ip.FieldSlot(bodyCl, "node", "pos")].Object()
		val := pos.Slots[ip.FieldSlot(prog.Classes["vector"], "vector", "val")].Array()
		for d := 0; d < 3; d++ {
			poss[i][d] = val.Elems[d].Float()
		}
	}
	_ = nodeCl
	return phis, poss
}

// TestBarnesHutParallelMatchesSerial: parallel execution preserves the
// simulation up to floating-point reassociation.
func TestBarnesHutParallelMatchesSerial(t *testing.T) {
	prog, plan := build(t, src.BarnesHut)

	ipSerial := interp.New(prog, nil)
	if err := ipSerial.Run(ipSerial.NewCtx()); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	wantPhi, wantPos := bhState(prog, ipSerial)

	ip := interp.New(prog, nil)
	r := rt.New(ip, plan, 4)
	if err := r.Run(); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	gotPhi, gotPos := bhState(prog, ip)

	if len(gotPhi) != len(wantPhi) {
		t.Fatalf("body count mismatch")
	}
	for i := range wantPhi {
		if relDiff(gotPhi[i], wantPhi[i]) > 1e-9 {
			t.Errorf("body %d phi = %g, want %g", i, gotPhi[i], wantPhi[i])
		}
		for d := 0; d < 3; d++ {
			if relDiff(gotPos[i][d], wantPos[i][d]) > 1e-9 {
				t.Errorf("body %d pos[%d] = %g, want %g", i, d, gotPos[i][d], wantPos[i][d])
			}
		}
	}

	// The force phase must actually run as parallel loops with GSS.
	if r.Stats.ParallelLoops == 0 || r.Stats.Chunks == 0 || r.Stats.Iterations == 0 {
		t.Errorf("loop stats empty: %+v", r.Stats)
	}
	if r.Stats.LockAcquires == 0 {
		t.Error("no lock acquisitions recorded")
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestWorkerScalingDeterminism: many worker counts, same marks.
func TestWorkerScalingDeterminism(t *testing.T) {
	prog, plan := build(t, src.Graph)
	var first []int64
	for _, w := range []int{1, 3, 7, 16} {
		ip := interp.New(prog, nil)
		if err := rt.New(ip, plan, w).Run(); err != nil {
			t.Fatalf("run w=%d: %v", w, err)
		}
		sums, _ := graphSums(t, prog, ip)
		if first == nil {
			first = sums
			continue
		}
		for i := range sums {
			if sums[i] != first[i] {
				t.Fatalf("w=%d: nondeterministic sum at node %d", w, i)
			}
		}
	}
}

// TestWalkerInterpreterRefused: the tree walker is the serial reference;
// the parallel runtime refuses it before running anything, and a walker
// call under an effect monitor fails rather than run unobserved.
func TestWalkerInterpreterRefused(t *testing.T) {
	prog, plan := build(t, src.Graph)
	var out strings.Builder
	ip := interp.NewEngine(prog, &out, interp.EngineWalk)
	r := rt.New(ip, plan, 2)
	if err := r.Run(); err == nil || !strings.Contains(err.Error(), "tree walker") {
		t.Errorf("Run on a walker interpreter: err = %v, want a refusal", err)
	}
	if r.Stats != (rt.Stats{}) || out.Len() != 0 {
		t.Errorf("refused run still executed: stats %+v, output %q", r.Stats, out.String())
	}

	ctx := ip.NewCtx()
	ctx.Mon = noopMon{}
	if _, err := ip.Call(ctx, prog.Main, nil, nil); err == nil || !strings.Contains(err.Error(), "effect monitor") {
		t.Errorf("walker call under a monitor: err = %v, want a refusal", err)
	}
}

type noopMon struct{}

func (noopMon) LoadField(o *interp.Object, slot int) interp.Value     { return o.Slots[slot] }
func (noopMon) StoreField(o *interp.Object, slot int, v interp.Value) { o.Slots[slot] = v }
func (noopMon) LoadElem(a *interp.Array, idx int) interp.Value        { return a.Elems[idx] }
func (noopMon) StoreElem(a *interp.Array, idx int, v interp.Value)    { a.Elems[idx] = v }
