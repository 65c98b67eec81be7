package nativert

import (
	"reflect"
	"slices"
	"testing"
)

// obj stands in for an emitted class struct: scalar fields, a pointer
// field and an embedded array (an aggregate location).
type obj struct {
	n    int64
	f    float64
	b    bool
	next *obj
	arr  [4]int64
}

var objFields = map[string]bool{"obj.n": true, "obj.f": true, "obj.b": true, "obj.next": true, "obj.arr": true}

// TestSpecJournalReadsItsOwnWrites: a load after a store returns the
// buffered value, through the last-write cache and through the map; the
// heap keeps its pre-region value; a touched aggregate is the heap's own
// and its elements journal on their own locations.
func TestSpecJournalReadsItsOwnWrites(t *testing.T) {
	o := &obj{n: 5, f: 1.5, arr: [4]int64{10, 11, 12, 13}}
	sr := NewSpecRegion(objFields, objFields)
	j := sr.NewJournal()

	if got := SpecLoad(j, &o.n, "obj.n"); got != 5 {
		t.Errorf("first load = %d, want the heap's 5", got)
	}
	SpecStore(j, &o.n, 7, "obj.n")
	if got := SpecLoad(j, &o.n, "obj.n"); got != 7 {
		t.Errorf("load after store = %d, want 7 (last-write cache)", got)
	}
	SpecStore(j, &o.f, 2.5, "obj.f") // moves the last-write cache off o.n
	if got := SpecLoad(j, &o.n, "obj.n"); got != 7 {
		t.Errorf("load after another store = %d, want 7 (write map)", got)
	}
	SpecStore(j, &o.n, SpecLoad(j, &o.n, "obj.n")+1, "obj.n")
	SpecStore(j, &o.n, SpecLoad(j, &o.n, "obj.n")+1, "obj.n")
	if got := SpecLoad(j, &o.n, "obj.n"); got != 9 {
		t.Errorf("load after two read-modify-writes = %d, want 9", got)
	}

	arr := SpecTouch(j, &o.arr, "obj.arr")
	if arr != &o.arr {
		t.Error("SpecTouch did not return the location itself")
	}
	SpecStore(j, &arr[0], 99, "")
	if got := SpecLoad(j, &arr[0], ""); got != 99 {
		t.Errorf("element load after store = %d, want 99", got)
	}
	if got := SpecLoad(j, &arr[1], ""); got != 11 {
		t.Errorf("untouched element = %d, want the heap's 11", got)
	}

	if o.n != 5 || o.f != 1.5 || o.arr[0] != 10 {
		t.Errorf("heap modified before commit: n=%d f=%g arr[0]=%d", o.n, o.f, o.arr[0])
	}
	// One write cell per distinct location; a location's first access
	// being a read logs it once, later stores do not add reads.
	if len(j.wcells) != 3 || len(j.writes) != 3 {
		t.Errorf("%d write cells (%d in the map), want 3", len(j.wcells), len(j.writes))
	}
	if len(j.rlog) != 3 || len(j.reads) != 3 { // o.n, o.arr, arr[1]
		t.Errorf("%d logged reads (%d in the map), want 3", len(j.rlog), len(j.reads))
	}
	if !sr.Commit() {
		t.Fatal("a single journal within its declared effects did not commit")
	}
	if o.n != 9 || o.f != 2.5 || o.arr[0] != 99 || o.arr[1] != 11 {
		t.Errorf("after commit: n=%d f=%g arr=%v, want 9 2.5 [99 11 ...]", o.n, o.f, o.arr)
	}
}

// TestSpecCommitAppliesEveryBufferedWrite: disjoint journals of every
// value shape commit, and every buffered write reaches the heap.
func TestSpecCommitAppliesEveryBufferedWrite(t *testing.T) {
	objs := make([]obj, 8)
	other := &obj{}
	sr := NewSpecRegion(nil, objFields)
	for i := range objs {
		j := sr.NewJournal()
		o := &objs[i]
		SpecStore(j, &o.n, int64(i+1), "obj.n")
		SpecStore(j, &o.f, float64(i)/2, "obj.f")
		SpecStore(j, &o.b, i%2 == 0, "obj.b")
		SpecStore(j, &o.next, other, "obj.next")
		SpecStore(j, &SpecTouch(j, &o.arr, "obj.arr")[i%4], int64(100+i), "")
	}
	if !sr.Commit() {
		t.Fatal("disjoint journals did not commit")
	}
	for i := range objs {
		o := &objs[i]
		if o.n != int64(i+1) || o.f != float64(i)/2 || o.b != (i%2 == 0) || o.next != other || o.arr[i%4] != int64(100+i) {
			t.Errorf("objs[%d] = %+v: a buffered write was not applied", i, *o)
		}
	}
}

// TestSpecAbortCauses: each reason to abort makes Commit return false
// and leaves the heap exactly as it was, buffered writes to unrelated
// cells included.
func TestSpecAbortCauses(t *testing.T) {
	declared := map[string]bool{"obj.n": true}
	for _, tc := range []struct {
		name string
		run  func(sr *SpecRegion, a, b *SpecJournal, o *obj)
	}{
		{"write-write", func(sr *SpecRegion, a, b *SpecJournal, o *obj) {
			SpecStore(a, &o.n, 1, "obj.n")
			SpecStore(b, &o.n, 2, "obj.n")
		}},
		{"read-vs-writer", func(sr *SpecRegion, a, b *SpecJournal, o *obj) {
			_ = SpecLoad(a, &o.n, "obj.n")
			SpecStore(b, &o.n, 2, "obj.n")
		}},
		{"touch-vs-writer", func(sr *SpecRegion, a, b *SpecJournal, o *obj) {
			SpecStore(b, &o.arr[2], 2, "")
			_ = SpecLoad(a, &SpecTouch(a, &o.arr, "obj.n")[2], "")
		}},
		{"undeclared write", func(sr *SpecRegion, a, b *SpecJournal, o *obj) {
			SpecStore(a, &o.f, 1, "obj.f")
		}},
		{"undeclared read", func(sr *SpecRegion, a, b *SpecJournal, o *obj) {
			_ = SpecLoad(a, &o.b, "obj.b")
		}},
		{"captured panic", func(sr *SpecRegion, a, b *SpecJournal, o *obj) {
			func() {
				defer sr.CapturePanic()
				SpecStore(a, &o.n, 1, "obj.n")
				Errf("index", "m", "1:1", "out of range")
			}()
			if !sr.Failed() {
				t.Error("captured panic: the region is not marked failed")
			}
		}},
	} {
		o := &obj{n: 40, f: 41, arr: [4]int64{1, 2, 3, 4}}
		bystander := &obj{n: 50}
		before := *o
		sr := NewSpecRegion(declared, declared)
		a, b := sr.NewJournal(), sr.NewJournal()
		SpecStore(a, &bystander.n, 51, "obj.n")
		SpecStore(b, &bystander.arr[0], 52, "")
		tc.run(sr, a, b, o)
		if sr.Commit() {
			t.Errorf("%s: region committed", tc.name)
		}
		if *o != before || bystander.n != 50 || bystander.arr[0] != 0 {
			t.Errorf("%s: heap touched by an aborted region: %+v %+v", tc.name, *o, *bystander)
		}
	}
}

// spareCellsEmpty: a recycled journal keeps its cells for the next
// region, past len(wcells), and none of them may pin a location or a
// value.
func spareCellsEmpty(t *testing.T, j *SpecJournal) {
	t.Helper()
	if len(j.wcells) != 0 {
		t.Errorf("recycled journal still lists %d write cells", len(j.wcells))
	}
	for i, c := range j.wcells[:cap(j.wcells)] {
		if c != nil && !reflect.ValueOf(c).Elem().IsZero() {
			t.Errorf("spare cell %d of a recycled journal still holds %+v", i, reflect.ValueOf(c).Elem())
		}
	}
}

// TestSpecRegionRecycledClean: Commit or Discard ends a region and hands
// it to the next NewSpecRegion. A discarded region leaves the heap as it
// was; recycled, it has no journal in flight, a cleared failed latch and
// emptied journals — no buffered write, logged read or cached location
// of the aborted run survives, and the cells kept for reuse hold nothing
// — while a journal that outgrew journalKeep is dropped instead of kept.
// A kept cell is reused only by a location of its own type.
func TestSpecRegionRecycledClean(t *testing.T) {
	o := &obj{n: 1}
	big := make([]int64, journalKeep+1)

	sr := NewSpecRegion(objFields, objFields)
	small, large := sr.NewJournal(), sr.NewJournal()
	func() {
		defer sr.CapturePanic()
		SpecStore(small, &o.n, 2, "obj.n")
		_ = SpecLoad(small, &o.f, "obj.f")
		for i := range big {
			SpecStore(large, &big[i], 1, "")
		}
		panic("abort")
	}()
	sr.Discard()
	if o.n != 1 || slices.Max(big) != 0 {
		t.Fatalf("heap touched by a discarded region: n=%d, max(big)=%d", o.n, slices.Max(big))
	}

	// The recycled region itself (Discard put it on the free list; nothing
	// else runs here that could take it).
	if sr.Failed() || len(sr.journals) != 0 || len(sr.writer) != 0 || sr.readOK != nil || sr.writeOK != nil {
		t.Errorf("recycled region: failed=%v journals=%d writer=%d", sr.Failed(), len(sr.journals), len(sr.writer))
	}
	if !slices.Contains(sr.free, small) || slices.Contains(sr.free, large) {
		t.Errorf("recycled region: small journal kept=%v, oversized journal kept=%v, want true false",
			slices.Contains(sr.free, small), slices.Contains(sr.free, large))
	}
	if j := small; len(j.reads)+len(j.writes)+len(j.rlog)+len(j.wcells) != 0 || j.lastW != nil || j.lastWCell != nil || j.lastR != nil {
		t.Errorf("recycled journal not empty: %+v", *j)
	}
	spareCellsEmpty(t, small)

	// Taken again, an aborted region behaves like a new one. sync.Pool
	// may hand out a fresh region instead (always possible, likely under
	// the race detector): abort that one too and try again.
	aborted := map[*SpecRegion]bool{sr: true}
	for try := 0; ; try++ {
		if try == 1000 {
			t.Fatal("no aborted region was ever reused")
		}
		next := NewSpecRegion(objFields, objFields)
		j := next.NewJournal()
		if got := SpecLoad(j, &o.n, "obj.n"); got != 1 {
			t.Fatalf("load in a new region's journal = %d, want the heap's 1 (stale write cell)", got)
		}
		SpecStore(j, &o.f, 3, "obj.f")
		if aborted[next] {
			if !next.Commit() {
				t.Fatal("a recycled region did not commit (stale latch or journal)")
			}
			if o.n != 1 || o.f != 3 {
				t.Fatalf("after the recycled region's commit: n=%d f=%g, want 1 3", o.n, o.f)
			}
			break
		}
		func() {
			defer next.CapturePanic()
			panic("abort")
		}()
		next.Commit()
		aborted[next] = true
	}

	// Region after region (the pool hands the same one back, short of a
	// GC), a journal's first written location changes type — int64,
	// float64, a whole struct — while its second keeps one: whichever cell
	// each store finds or makes, Commit applies the value stored.
	var whole obj
	for round := 0; round < 9; round++ {
		sr := NewSpecRegion(nil, objFields)
		j := sr.NewJournal()
		want := obj{n: o.n, f: o.f, next: &obj{n: int64(round)}}
		switch round % 3 {
		case 0:
			want.n = int64(10 + round)
			SpecStore(j, &o.n, want.n, "obj.n")
		case 1:
			want.f = float64(round) / 4
			SpecStore(j, &o.f, want.f, "obj.f")
		case 2:
			SpecStore(j, &whole, obj{n: int64(round), b: true}, "")
		}
		SpecStore(j, &o.next, want.next, "obj.next")
		if !sr.Commit() {
			t.Fatalf("round %d: did not commit", round)
		}
		if *o != want || (round%3 == 2 && whole != obj{n: int64(round), b: true}) {
			t.Fatalf("round %d: committed %+v and %+v, want %+v", round, *o, whole, want)
		}
		spareCellsEmpty(t, j)
	}
}
