package extent_test

import (
	"sort"
	"strings"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/analysis/extent"
	"commute/internal/apps/src"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

func analyze(t *testing.T, source string) (*types.Program, *effects.Analyzer) {
	t.Helper()
	f, err := parser.Parse("app.mc", source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog, effects.NewAnalyzer(prog)
}

func method(t *testing.T, p *types.Program, full string) *types.Method {
	t.Helper()
	m := p.MethodByFullName(full)
	if m == nil {
		t.Fatalf("method %s not found", full)
	}
	return m
}

// siteNames returns "caller→callee" strings for a call-site list,
// deduplicated and sorted.
func siteNames(sites []*types.CallSite) []string {
	set := make(map[string]bool)
	for _, s := range sites {
		set[s.Caller.Name+"→"+s.Callee.Name] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func wantNames(t *testing.T, label string, got, want []string) {
	t.Helper()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s:\n got  %v\n want %v", label, got, want)
	}
}

// TestFigure7ExtentConstants checks extentConstantVariables against the
// paper's Figure 7.
func TestFigure7ExtentConstants(t *testing.T) {
	p, a := analyze(t, src.BarnesHut)

	ec := extent.Constants(a, method(t, p, "body::gravsub"))
	want := []string{"node.mass", "node.pos.val", "parms.eps"}
	for _, w := range want {
		if !hasKey(ec, w) {
			t.Errorf("ec(gravsub) missing %s: %s", w, ec)
		}
	}
	if ec.Len() != len(want) {
		t.Errorf("ec(gravsub) = %s, want %v", ec, want)
	}

	ec = extent.Constants(a, method(t, p, "nbody::computeForces"))
	want = []string{
		"node.mass", "node.pos.val", "leaf.numbodies", "leaf.bodyp",
		"cell.subp", "parms.eps", "parms.epsSq", "parms.tolSq",
		"nbody.numbodies", "nbody.bodies", "nbody.BH_root", "nbody.size",
	}
	for _, w := range want {
		if !hasKey(ec, w) {
			t.Errorf("ec(computeForces) missing %s: %s", w, ec)
		}
	}
	if ec.Len() != len(want) {
		t.Errorf("ec(computeForces) has %d entries %s, want %d", ec.Len(), ec, len(want))
	}
}

func hasKey(s *effects.Set, key string) bool {
	for _, d := range s.Slice() {
		if d.Key() == key {
			return true
		}
	}
	return false
}

// TestFigure9Extents checks the extent computation against Figure 9:
// computeInter and subdivp call sites are auxiliary; the rest form the
// extent.
func TestFigure9Extents(t *testing.T) {
	p, a := analyze(t, src.BarnesHut)
	cf := method(t, p, "nbody::computeForces")
	ec := extent.Constants(a, cf)

	res := extent.Compute(a, cf, ec)
	wantNames(t, "aux(computeForces)", siteNames(res.Aux),
		[]string{"gravsub→computeInter", "walksub→subdivp"})
	wantNames(t, "ext(computeForces)", siteNames(res.Ext),
		[]string{
			"computeForces→walksub",
			"gravsub→vecAdd",
			"openCell→walksub",
			"openLeaf→gravsub",
			"walksub→gravsub",
			"walksub→openCell",
			"walksub→openLeaf",
		})

	// Methods = {computeForces} ∪ {walksub, openCell, openLeaf, gravsub,
	// vecAdd} — the paper's extent size 6 for the Force extent.
	if len(res.Methods) != 6 {
		names := make([]string, len(res.Methods))
		for i, m := range res.Methods {
			names[i] = m.FullName()
		}
		t.Errorf("extent methods = %v, want 6", names)
	}

	// Figure 9 also evaluates extents of inner methods with ec(computeForces).
	gs := method(t, p, "body::gravsub")
	res = extent.Compute(a, gs, ec)
	wantNames(t, "aux(gravsub)", siteNames(res.Aux), []string{"gravsub→computeInter"})
	wantNames(t, "ext(gravsub)", siteNames(res.Ext), []string{"gravsub→vecAdd"})

	ol := method(t, p, "body::openLeaf")
	res = extent.Compute(a, ol, ec)
	wantNames(t, "aux(openLeaf)", siteNames(res.Aux), []string{"gravsub→computeInter"})
	wantNames(t, "ext(openLeaf)", siteNames(res.Ext),
		[]string{"gravsub→vecAdd", "openLeaf→gravsub"})

	ws := method(t, p, "body::walksub")
	res = extent.Compute(a, ws, ec)
	wantNames(t, "aux(walksub)", siteNames(res.Aux),
		[]string{"gravsub→computeInter", "walksub→subdivp"})
	wantNames(t, "ext(walksub)", siteNames(res.Ext),
		[]string{
			"gravsub→vecAdd", "openCell→walksub", "openLeaf→gravsub",
			"walksub→gravsub", "walksub→openCell", "walksub→openLeaf",
		})
}

// TestVelocityExtent checks the velocity-update extent: scaleAcc and
// getDt are auxiliary; advanceVelocity and vecAdd form the extent.
func TestVelocityExtent(t *testing.T) {
	p, a := analyze(t, src.BarnesHut)
	av := method(t, p, "nbody::advanceVelocities")
	ec := extent.Constants(a, av)
	res := extent.Compute(a, av, ec)
	wantNames(t, "aux(advanceVelocities)", siteNames(res.Aux),
		[]string{"advanceVelocities→getDt", "advanceVelocity→scaleAcc"})
	wantNames(t, "ext(advanceVelocities)", siteNames(res.Ext),
		[]string{"advanceVelocities→advanceVelocity", "advanceVelocity→vecAdd"})
	if len(res.Methods) != 3 {
		t.Errorf("velocity extent size = %d, want 3", len(res.Methods))
	}
}

// TestGraphExtent checks the §2 graph traversal: the visit extent is
// just visit itself (recursive), with no auxiliary operations.
func TestGraphExtent(t *testing.T) {
	p, a := analyze(t, src.Graph)
	tr := method(t, p, "builder::traverse")
	ec := extent.Constants(a, tr)
	// val, left, right are read but never written; sum and mark are
	// read and written.
	for _, w := range []string{"graph.val", "graph.left", "graph.right", "builder.root"} {
		if !hasKey(ec, w) {
			t.Errorf("ec(traverse) missing %s: %s", w, ec)
		}
	}
	for _, bad := range []string{"graph.sum", "graph.mark"} {
		if hasKey(ec, bad) {
			t.Errorf("ec(traverse) must not contain %s: %s", bad, ec)
		}
	}
	res := extent.Compute(a, tr, ec)
	if len(res.Aux) != 0 {
		t.Errorf("aux(traverse) = %v, want none", siteNames(res.Aux))
	}
	wantNames(t, "ext(traverse)", siteNames(res.Ext),
		[]string{"traverse→visit", "visit→visit"})
	if len(res.Methods) != 2 {
		t.Errorf("traverse extent size = %d, want 2 (traverse, visit)", len(res.Methods))
	}
}

// TestConstantsMatchesLiftAndFilter: Constants, which lifts the reads
// once and tests them against each write's lift, is the composition of
// the paper's definition — lift the reads, lift the writes, keep the
// reads that overlap no write — over every method of the shipped apps
// and fixtures.
func TestConstantsMatchesLiftAndFilter(t *testing.T) {
	sources := map[string]string{}
	for _, name := range strings.Split(src.AppNames(), ", ") {
		_, sources[name], _ = src.App(name)
	}
	for _, fx := range src.LoopFixtures() {
		sources["loops/"+fx.Name] = fx.Source
	}
	for _, fx := range src.EntryFixtures() {
		sources["entry/"+fx.Name] = fx.Source
	}
	for _, fx := range src.DispatchFixtures() {
		sources["dispatch/"+fx.Name] = fx.Source
	}
	for name, source := range sources {
		p, a := analyze(t, source)
		for _, m := range p.Methods {
			te := a.TransitiveEffects(m)
			wr := te.Writes.Lift()
			want := te.Reads.Lift().Filter(func(d effects.Desc) bool { return !wr.OverlapsDesc(d) })
			if got := extent.Constants(a, m); got.Key() != want.Key() {
				t.Errorf("%s: %s: Constants is %s, want %s", name, m.FullName(), got, want)
			}
		}
	}
}
