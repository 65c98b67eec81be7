package apps_test

import (
	"math"
	"testing"

	"commute/internal/apps"
	"commute/internal/tracer"
)

// TestWaterMomentumConservation: the pairwise force updates through the
// shared force bank are antisymmetric, so total momentum is conserved
// across steps — a physics-level check that the commuting accumulations
// implement the right semantics.
func TestWaterMomentumConservation(t *testing.T) {
	sys, err := apps.Water(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := sys.ReadInt(ip, "Water.nmol")
	var px, py, pz float64
	for i := int64(0); i < n; i++ {
		m, _ := sys.ReadFloat(ip, path("Water.mols", i, "mass"))
		vx, _ := sys.ReadFloat(ip, path("Water.mols", i, "vx"))
		vy, _ := sys.ReadFloat(ip, path("Water.mols", i, "vy"))
		vz, _ := sys.ReadFloat(ip, path("Water.mols", i, "vz"))
		px += m * vx
		py += m * vy
		pz += m * vz
	}
	// The initial velocities are random in (-0.05, 0.05); forces cannot
	// change the total. Allow only float error relative to per-molecule
	// momentum scale.
	scale := float64(n) * 18.0 * 0.05
	var initPx float64
	{
		// Recompute the initial total from a zero-step run.
		sys0, err := apps.Water(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		ip0, err := sys0.RunSerial(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			m, _ := sys0.ReadFloat(ip0, path("Water.mols", i, "mass"))
			vx, _ := sys0.ReadFloat(ip0, path("Water.mols", i, "vx"))
			initPx += m * vx
		}
	}
	if math.Abs(px-initPx) > 1e-9*scale {
		t.Errorf("x momentum drifted: %g → %g", initPx, px)
	}
	_ = py
	_ = pz
}

func path(base string, i int64, field string) string {
	return base + "[" + itoa(i) + "]." + field
}

func itoa(i int64) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestBarnesHutBoundMass: across steps the tree root mass stays the
// total mass (1.0 by construction).
func TestBarnesHutBoundMass(t *testing.T) {
	sys, err := apps.BarnesHut(128, 3)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	mass, err := sys.ReadFloat(ip, "Nbody.BH_root.mass")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mass-1.0) > 1e-9 {
		t.Errorf("root mass = %g, want 1.0", mass)
	}
}

// TestExplicitBaselineTransforms: stripCrits removes every critical
// section; the Barnes-Hut transformation preserves parallel work up to
// the locality factor and converts most serial work to parallel.
func TestExplicitBaselineTransforms(t *testing.T) {
	sys, err := apps.BarnesHut(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := apps.TracePaper(sys)
	if err != nil {
		t.Fatal(err)
	}
	ex := apps.ExplicitBarnesHut(tr, 128, 1.0) // locality 1.0: pure structure change
	if countCrits(ex) != 0 {
		t.Errorf("explicit trace still has %d critical sections", countCrits(ex))
	}
	if countCrits(tr) == 0 {
		t.Error("automatic trace should have critical sections")
	}
	// Total units are preserved when locality is 1.0.
	before := tr.SerialUnits() + tr.ParallelUnits()
	after := ex.SerialUnits() + ex.ParallelUnits()
	if before != after {
		t.Errorf("units changed: %d → %d", before, after)
	}
	// Most serial work became parallel.
	if ex.SerialUnits() >= tr.SerialUnits() {
		t.Errorf("serial units did not shrink: %d → %d", tr.SerialUnits(), ex.SerialUnits())
	}

	wsys, err := apps.Water(27, 1)
	if err != nil {
		t.Fatal(err)
	}
	wtr, err := apps.TracePaper(wsys)
	if err != nil {
		t.Fatal(err)
	}
	wex := apps.ExplicitWater(wtr, 100)
	if countCrits(wex) != 0 {
		t.Error("explicit Water trace still has critical sections")
	}
}

func countCrits(tr *tracer.Trace) int {
	n := 0
	var walk func(*tracer.Task)
	walk = func(task *tracer.Task) {
		for _, e := range task.Events {
			switch e.Kind {
			case tracer.EvCrit:
				n++
			case tracer.EvSpawn:
				walk(e.Child)
			case tracer.EvLoop:
				for _, it := range e.Iters {
					walk(it)
				}
			}
		}
	}
	for _, ph := range tr.Phases {
		if ph.Root != nil {
			walk(ph.Root)
		}
	}
	return n
}

// TestLoaders: parameterized workloads produce the requested sizes.
func TestLoaders(t *testing.T) {
	sys, err := apps.Graph(48)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := sys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := sys.ReadInt(ip, "Builder.numnodes")
	if n != 48 {
		t.Errorf("graph nodes = %d, want 48", n)
	}

	bsys, err := apps.BarnesHut(96, 1)
	if err != nil {
		t.Fatal(err)
	}
	bip, err := bsys.RunSerial(nil)
	if err != nil {
		t.Fatal(err)
	}
	bn, _ := bsys.ReadInt(bip, "Nbody.numbodies")
	if bn != 96 {
		t.Errorf("bodies = %d, want 96", bn)
	}
}
