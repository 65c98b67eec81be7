package effects_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"commute/internal/analysis/effects"
	"commute/internal/apps/src"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// genDescs builds a pool of descriptors over the Barnes-Hut class
// hierarchy: plain fields, nested chains, lifted types, params, locals.
func genDescs(t *testing.T) []effects.Desc {
	t.Helper()
	f, err := parser.Parse("bh.mc", src.BarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := types.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	node := prog.Classes["node"]
	body := prog.Classes["body"]
	cell := prog.Classes["cell"]
	leaf := prog.Classes["leaf"]
	vector := prog.Classes["vector"]
	gravsub := prog.MethodByFullName("body::gravsub")
	computeInter := prog.MethodByFullName("body::computeInter")

	return []effects.Desc{
		effects.FieldDesc(node, nil, "mass"),
		effects.FieldDesc(node, []string{"pos"}, "val"),
		effects.FieldDesc(body, []string{"acc"}, "val"),
		effects.FieldDesc(body, []string{"vel"}, "val"),
		effects.FieldDesc(body, nil, "phi"),
		effects.FieldDesc(cell, nil, "subp"),
		effects.FieldDesc(leaf, nil, "numbodies"),
		effects.FieldDesc(vector, nil, "val"),
		effects.ThisField(body, nil, "phi"),
		effects.ThisField(node, []string{"pos"}, "val"),
		effects.TypeDesc(types.Double),
		effects.TypeDesc(types.Int),
		effects.Param(computeInter, "res"),
		effects.Local(gravsub, "tmpv"),
		effects.Local(gravsub, "d"),
	}
}

// TestLeqIsPartialOrder: reflexive, transitive, and antisymmetric up to
// equal keys on the descriptor pool.
func TestLeqIsPartialOrder(t *testing.T) {
	pool := genDescs(t)
	for _, a := range pool {
		if !effects.Leq(a, a) {
			t.Errorf("≼ not reflexive at %s", a.Key())
		}
	}
	for _, a := range pool {
		for _, b := range pool {
			for _, c := range pool {
				if effects.Leq(a, b) && effects.Leq(b, c) && !effects.Leq(a, c) {
					t.Errorf("≼ not transitive: %s ≼ %s ≼ %s", a.Key(), b.Key(), c.Key())
				}
			}
		}
	}
	for _, a := range pool {
		for _, b := range pool {
			if effects.Leq(a, b) && effects.Leq(b, a) {
				// Mutual ≼ means the same storage; receiver-relative
				// descriptors and their normalization are the only
				// distinct-key pairs allowed.
				na, nb := a, b
				na.ViaThis, nb.ViaThis = false, false
				if na.Key() != nb.Key() {
					t.Errorf("≼ antisymmetry violated: %s vs %s", a.Key(), b.Key())
				}
			}
		}
	}
}

// TestExpectedOrderings: the paper's §4.2 example orderings hold.
func TestExpectedOrderings(t *testing.T) {
	pool := genDescs(t)
	byKey := map[string]effects.Desc{}
	for _, d := range pool {
		byKey[d.Key()] = d
	}
	leq := func(a, b string) bool {
		return effects.Leq(byKey[a], byKey[b])
	}
	cases := []struct {
		a, b string
		want bool
	}{
		{"body.acc.val", "vector.val", true},  // cl.q.v ≼ cl2.v via class(body.acc)=vector
		{"vector.val", "body.acc.val", false}, // not the other way
		{"body.acc.val", "body.vel.val", false},
		{"node.pos.val", "vector.val", true},
		{"body.phi", "t:double", true}, // s ≼ type(s)
		{"body.phi", "t:int", false},
		{"cell.subp", "t:int", true}, // pointer arrays lift to int storage
		{"this→body.phi", "body.phi", true},
		{"body.phi", "this→body.phi", true},
	}
	for _, tc := range cases {
		if got := leq(tc.a, tc.b); got != tc.want {
			t.Errorf("Leq(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestSetOperations: covers/overlaps consistency on random subsets.
func TestSetOperations(t *testing.T) {
	pool := genDescs(t)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		s := effects.NewSet()
		var members []effects.Desc
		for _, d := range pool {
			if r.Intn(2) == 0 {
				s.Add(d)
				members = append(members, d)
			}
		}
		if s.Len() != len(uniqueKeys(members)) {
			t.Fatalf("set length %d != unique members %d", s.Len(), len(uniqueKeys(members)))
		}
		for _, d := range members {
			if !s.Has(d) || !s.Covers(d) {
				t.Fatalf("member %s not found in its own set", d.Key())
			}
		}
		// CoversAll is reflexive; a clone equals the original.
		if !s.CoversAll(s) {
			t.Fatal("CoversAll not reflexive")
		}
		c := s.Clone()
		if c.Key() != s.Key() {
			t.Fatal("clone differs from original")
		}
		// OverlapsSet is symmetric.
		o := effects.NewSet()
		for _, d := range pool {
			if r.Intn(3) == 0 {
				o.Add(d)
			}
		}
		if s.OverlapsSet(o) != o.OverlapsSet(s) {
			t.Fatal("OverlapsSet not symmetric")
		}
	}
}

func uniqueKeys(ds []effects.Desc) map[string]bool {
	out := map[string]bool{}
	for _, d := range ds {
		out[d.Key()] = true
	}
	return out
}

// TestLiftIdempotent: lift(lift(s)) == lift(s).
func TestLiftIdempotent(t *testing.T) {
	for _, d := range genDescs(t) {
		once := d.Lift()
		twice := once.Lift()
		if once.Key() != twice.Key() {
			t.Errorf("lift not idempotent at %s: %s vs %s", d.Key(), once.Key(), twice.Key())
		}
	}
}

// model is the reference the interned Set is checked against: the
// descriptors by canonical key, every query answered from Leq.
type model map[string]effects.Desc

func (m model) slice() []effects.Desc {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]effects.Desc, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func (m model) key() string {
	var keys []string
	for _, d := range m.slice() {
		keys = append(keys, d.Key())
	}
	return strings.Join(keys, ";")
}

func (m model) covers(d effects.Desc) bool {
	for _, e := range m {
		if effects.Leq(d, e) {
			return true
		}
	}
	return false
}

func (m model) coversAll(o model) bool {
	for _, d := range o {
		if !m.covers(d) {
			return false
		}
	}
	return true
}

func (m model) overlaps(o model) bool {
	for _, a := range m {
		for _, b := range o {
			if effects.Overlaps(a, b) {
				return true
			}
		}
	}
	return false
}

// TestSetMatchesModel applies random operations to Sets and to the
// reference side by side and compares every observation after each.
func TestSetMatchesModel(t *testing.T) {
	pool := genDescs(t)
	r := rand.New(rand.NewSource(15))
	wide := func(d effects.Desc) bool { p, _ := d.PrimType(); return p == types.Double }
	// The identity binding re-roots receiver-relative fields at their
	// declaring class and leaves everything else alone.
	root := effects.Identity(pool[len(pool)-1].Method)
	unthis := func(d effects.Desc) effects.Desc { d.ViaThis = false; return d }

	const n = 4
	for trial := 0; trial < 300; trial++ {
		var sets [n]*effects.Set
		var refs [n]model
		for i := range sets {
			sets[i], refs[i] = effects.NewSet(), model{}
		}
		for step := 0; step < 40; step++ {
			i, j := r.Intn(n), r.Intn(n)
			d := pool[r.Intn(len(pool))]
			switch r.Intn(7) {
			case 0, 1:
				_, had := refs[i][d.Key()]
				refs[i][d.Key()] = d
				if sets[i].Add(d) == had {
					t.Fatalf("Add(%s) reported changed=%v on %s", d.Key(), had, sets[i])
				}
			case 2:
				before := len(refs[i])
				for k, v := range refs[j] {
					refs[i][k] = v
				}
				if sets[i].AddAll(sets[j]) != (len(refs[i]) > before) {
					t.Fatalf("AddAll misreported the change: %s", sets[i])
				}
			case 3:
				clone := model{}
				for k, v := range refs[j] {
					clone[k] = v
				}
				sets[i], refs[i] = sets[j].Clone(), clone
			case 4:
				sets[i] = sets[j].Filter(wide)
				kept := model{}
				for k, v := range refs[j] {
					if wide(v) {
						kept[k] = v
					}
				}
				refs[i] = kept
			case 5:
				sets[i] = root.SubstSet(sets[j])
				mapped := model{}
				for _, v := range refs[j] {
					mapped[unthis(v).Key()] = unthis(v)
				}
				refs[i] = mapped
			case 6:
				sets[i] = sets[j].Lift()
				lifted := model{}
				for _, v := range refs[j] {
					lifted[v.Lift().Key()] = v.Lift()
				}
				refs[i] = lifted
			}

			s, m := sets[i], refs[i]
			if s.Len() != len(m) || s.Key() != m.key() || !reflect.DeepEqual(s.Slice(), m.slice()) {
				t.Fatalf("trial %d step %d: set %s, model {%s}", trial, step, s, m.key())
			}
			for _, p := range pool {
				_, has := m[p.Key()]
				if s.Has(p) != has || s.Covers(p) != m.covers(p) || s.OverlapsDesc(p) != m.overlaps(model{"": p}) {
					t.Fatalf("trial %d step %d: %s disagrees with the model about %s", trial, step, s, p.Key())
				}
			}
			if s.All(wide) != (len(s.Filter(wide).Slice()) == s.Len()) {
				t.Fatalf("trial %d step %d: All and Filter disagree on %s", trial, step, s)
			}
			if s.CoversAll(sets[j]) != m.coversAll(refs[j]) || s.OverlapsSet(sets[j]) != m.overlaps(refs[j]) {
				t.Fatalf("trial %d step %d: %s vs %s: CoversAll/OverlapsSet disagree with the model", trial, step, s, sets[j])
			}
		}
	}
}

// TestAnalyzersAgree: a set says what it contains, not which Analyzer
// interned it or in what order. Two Analyzers over one program, driven
// in opposite method orders, publish deeply equal results, and their
// sets combine as if they came from one.
func TestAnalyzersAgree(t *testing.T) {
	for _, source := range []string{src.BarnesHut, src.Water, src.Graph} {
		f, err := parser.Parse("app.mc", source)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatal(err)
		}
		a, b := effects.NewAnalyzer(prog), effects.NewAnalyzer(prog)
		for i := len(prog.Methods) - 1; i >= 0; i-- {
			b.TransitiveEffects(prog.Methods[i])
		}
		for _, m := range prog.Methods {
			ta, tb := a.TransitiveEffects(m), b.TransitiveEffects(m)
			if !reflect.DeepEqual(ta, tb) || !reflect.DeepEqual(a.Info(m), b.Info(m)) {
				t.Fatalf("%s: the two analyzers disagree", m.FullName())
			}
			for _, site := range m.CallSites {
				if !reflect.DeepEqual(a.Dep(site), b.Dep(site)) {
					t.Fatalf("%s: dep sets of site %d differ", m.FullName(), site.ID)
				}
			}
			mixed, own := ta.Reads.Clone(), ta.Reads.Clone()
			mixed.AddAll(tb.Writes)
			own.AddAll(ta.Writes)
			if !reflect.DeepEqual(mixed, own) || !ta.Reads.CoversAll(tb.Reads) || !mixed.CoversAll(own) {
				t.Fatalf("%s: sets from two analyzers do not combine like sets from one", m.FullName())
			}
		}
	}
}
