package apps_test

import (
	"math"
	"strings"
	"testing"

	"commute"
	"commute/internal/apps"
	"commute/internal/apps/src"
	"commute/internal/interp"
)

// Golden numeric outputs for the two physics applications at a fixed
// small workload, recorded as exact float64 bit patterns. Floating
// point arithmetic in the interpreter is deterministic, so any drift —
// engine divergence, a change in evaluation order, a coercion bug in
// the tagged value representation — shows up as a bit-level mismatch,
// not just a tolerance failure.
var goldenCases = []struct {
	app  string
	path string
	bits uint64
}{
	{"barneshut", "Nbody.BH_root.mass", 0x3ff0000000000000},
	{"barneshut", "Nbody.bodies[0].phi", 0xbfd8fc83a01533a2},
	{"barneshut", "Nbody.bodies[17].phi", 0xbfded288461bc57e},
	{"barneshut", "Nbody.bodies[63].vel.val[0]", 0x3f4cecb6c5384897},
	{"water", "Water.mols[0].vx", 0x3fa305903e3d2f0b},
	{"water", "Water.mols[11].vy", 0x3f57b45cdad0da27},
	{"water", "Water.mols[26].vz", 0xbfa8fd7842666b13},
}

// TestGoldenOutputs runs Barnes-Hut (64 bodies, 1 step) and Water
// (27 molecules, 1 step) serially under both execution engines and
// checks representative observables against the committed goldens,
// bit for bit.
func TestGoldenOutputs(t *testing.T) {
	for _, e := range []struct {
		name string
		eng  interp.Engine
	}{{"walk", interp.EngineWalk}, {"compiled", interp.EngineCompiled}} {
		t.Run(e.name, func(t *testing.T) {
			bh, err := apps.BarnesHut(64, 1)
			if err != nil {
				t.Fatal(err)
			}
			bhIP, err := bh.RunSerialEngine(e.eng, nil)
			if err != nil {
				t.Fatalf("barneshut: %v", err)
			}
			water, err := apps.Water(27, 1)
			if err != nil {
				t.Fatal(err)
			}
			waterIP, err := water.RunSerialEngine(e.eng, nil)
			if err != nil {
				t.Fatalf("water: %v", err)
			}
			for _, g := range goldenCases {
				sys, ip := bh, bhIP
				if g.app == "water" {
					sys, ip = water, waterIP
				}
				v, err := sys.ReadFloat(ip, g.path)
				if err != nil {
					t.Errorf("%s %s: %v", g.app, g.path, err)
					continue
				}
				if bits := math.Float64bits(v); bits != g.bits {
					t.Errorf("%s %s = %v (bits %#016x), want bits %#016x (%v)",
						g.app, g.path, v, bits, g.bits, math.Float64frombits(g.bits))
				}
			}
		})
	}
}

// TestDispatchFixturesPrint: each in-region dispatch fixture, at the size
// it ships, prints serially the one line the fixture says it does (the
// serial-equivalence oracle runs them on smaller trees).
func TestDispatchFixturesPrint(t *testing.T) {
	for _, fx := range src.DispatchFixtures() {
		sys, err := commute.Load(fx.Name+".mc", fx.Source)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if _, err := sys.RunSerial(&out); err != nil || out.String() != fx.Output {
			t.Errorf("%s prints %q (%v), the fixture says %q", fx.Name, out.String(), err, fx.Output)
		}
	}
}
