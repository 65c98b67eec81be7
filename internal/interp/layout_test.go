package interp_test

import (
	"io"
	"sync"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/frontend/types"
	"commute/internal/interp"
)

// TestClassLayoutAgreesWithFieldSlot pins the exported layout accessor
// to the slot resolution the interpreter actually executes with: every
// (class, declClass, field) triple must resolve to the same slot both
// ways, slots must be dense 0..n-1, and the slot count must match the
// allocated object size.
func TestClassLayoutAgreesWithFieldSlot(t *testing.T) {
	for _, app := range []struct{ name, source string }{
		{"barneshut", src.BarnesHut},
		{"water", src.Water},
		{"graph", src.Graph},
	} {
		sys, err := commute.Load(app.name, app.source)
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		ip, err := sys.RunSerial(io.Discard)
		if err != nil {
			t.Fatalf("%s: run: %v", app.name, err)
		}
		for _, cl := range sys.Prog.ClassList {
			fields := interp.ClassLayout(cl)
			if want := interp.ClassSlotCount(sys.Prog, cl); len(fields) != want {
				t.Fatalf("%s: class %s: layout has %d fields, slot count is %d",
					app.name, cl.Name, len(fields), want)
			}
			seen := make(map[int]bool)
			for i, f := range fields {
				if f.Slot != i {
					t.Errorf("%s: class %s field %s: layout order gives index %d but slot %d",
						app.name, cl.Name, f.Name, i, f.Slot)
				}
				if seen[f.Slot] {
					t.Errorf("%s: class %s: duplicate slot %d", app.name, cl.Name, f.Slot)
				}
				seen[f.Slot] = true
				if got := ip.FieldSlot(cl, f.DeclClass, f.Name); got != f.Slot {
					t.Errorf("%s: class %s field %s.%s: ClassLayout says slot %d, FieldSlot says %d",
						app.name, cl.Name, f.DeclClass, f.Name, f.Slot, got)
				}
				if f.Type == nil {
					t.Errorf("%s: class %s field %s: nil type", app.name, cl.Name, f.Name)
				}
			}
			// Base-class fields must come first (the layout invariant the
			// native backend's embedded structs rely on).
			if cl.Base != nil {
				baseN := interp.ClassSlotCount(sys.Prog, cl.Base)
				for _, f := range fields[:baseN] {
					if f.DeclClass == cl.Name {
						t.Errorf("%s: class %s: own field %s occupies base slot %d",
							app.name, cl.Name, f.Name, f.Slot)
					}
				}
			}
		}
		for _, m := range sys.Prog.Methods {
			frame := interp.MethodFrame(sys.Prog, m)
			if len(frame) < len(m.Params) {
				t.Fatalf("%s: %s: frame has %d slots, fewer than %d params",
					app.name, m.FullName(), len(frame), len(m.Params))
			}
			for i, p := range m.Params {
				if frame[i].Name != p.Name || !frame[i].Param {
					t.Errorf("%s: %s: frame slot %d = %+v, want param %s",
						app.name, m.FullName(), i, frame[i], p.Name)
				}
				if !types.Equal(frame[i].Type, p.Type) {
					t.Errorf("%s: %s: param %s frame type %v != declared %v",
						app.name, m.FullName(), p.Name, frame[i].Type, p.Type)
				}
			}
			for _, v := range frame[len(m.Params):] {
				if v.Param {
					t.Errorf("%s: %s: local %s marked as param", app.name, m.FullName(), v.Name)
				}
			}
		}
	}
}

// TestConcurrentFirstInterpretersShareOneResolution: the first
// interpreters of a program, created at once, resolve it once and
// execute with the one resolution; nothing is held for the program
// before and after a Release.
func TestConcurrentFirstInterpretersShareOneResolution(t *testing.T) {
	sys, err := commute.Load("graph", src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Resolved(sys.Prog) {
		t.Fatal("loading resolved the program")
	}
	const n = 8
	res := make([]any, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = interp.New(sys.Prog, io.Discard).Resolution()
		}()
	}
	wg.Wait()
	for i, r := range res {
		if r != res[0] {
			t.Fatalf("interpreter %d executes with another resolution than interpreter 0", i)
		}
	}
	sys.Release()
	if interp.Resolved(sys.Prog) {
		t.Fatal("Release left the resolution held")
	}
}
