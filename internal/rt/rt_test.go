package rt_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/rt"
)

// TestWalkerInterpreterRefused: the tree walker is the serial reference;
// the parallel runtime refuses an interpreter that walks everything
// before running anything. Under an effect monitor the walker is the
// speculative engine: a buffering monitor sees every field and element
// access of graph's main, so the heap is left as it was — the globals,
// and every object and array the run met — and the state read through
// the monitor is the unmonitored run's.
func TestWalkerInterpreterRefused(t *testing.T) {
	sys := oracle.Load(t, "graph.mc", src.Graph)
	var out strings.Builder
	ip := interp.NewEngine(sys.Code(), &out, interp.EngineWalk)
	r := rt.New(ip, sys.Plan, 2)
	if err := r.Run(); err == nil || !strings.Contains(err.Error(), "tree walker") {
		t.Errorf("Run on a walker interpreter: err = %v, want a refusal", err)
	}
	if r.Stats != (rt.Stats{}) || out.Len() != 0 {
		t.Errorf("refused run still executed: stats %+v, output %q", r.Stats, out.String())
	}

	ref := interp.NewEngine(sys.Code(), nil, interp.EngineWalk)
	if err := ref.Run(ref.NewCtx()); err != nil {
		t.Fatal(err)
	}
	fresh := interp.NewEngine(sys.Code(), nil, interp.EngineWalk)
	heap := func(p *interp.Value) interp.Value { return *p }
	want, untouched := heapDump(ref, heap), heapDump(fresh, heap)
	for _, eng := range []interp.Engine{interp.EngineWalk, interp.EngineCompiled} {
		ip := interp.NewEngine(sys.Code(), nil, eng)
		mon := &bufMon{buf: map[*interp.Value]interp.Value{}, seen: map[*interp.Value]sighting{}}
		ctx := ip.NewCtx()
		ctx.Mon = mon
		if err := ip.Run(ctx); err != nil {
			t.Fatalf("engine %d under a monitor: %v", eng, err)
		}
		if got := heapDump(ip, heap); got != untouched {
			t.Errorf("engine %d under a monitor wrote the globals: %s", eng, firstDiff(got, untouched))
		}
		for _, s := range mon.seen {
			if !slices.Equal(s.live, s.then) {
				t.Errorf("engine %d under a monitor wrote an object or array it met: %v, first met as %v", eng, s.live, s.then)
				break
			}
		}
		if got := heapDump(ip, mon.load); got != want {
			t.Errorf("engine %d: state through the monitor differs from the unmonitored run: %s", eng, firstDiff(got, want))
		}
		for k, n := range mon.n {
			if n == 0 {
				t.Errorf("engine %d: the monitor saw no access of kind %d (field load, field store, element load, element store)", eng, k)
			}
		}
	}
}

// bufMon buffers every store, keyed by the address of the slot or
// element, reads a load's own buffered write first, and counts the
// accesses: field loads, field stores, element loads, element stores.
// It also keeps a sighting of every object and array it meets, accessed
// or stored, keyed by its first slot or element.
type bufMon struct {
	buf  map[*interp.Value]interp.Value
	seen map[*interp.Value]sighting
	n    [4]int
}

// sighting is an object's slots or an array's elements, live and as the
// heap held them when the monitor first met them.
type sighting struct{ live, then []interp.Value }

func (m *bufMon) meet(live []interp.Value) {
	if len(live) > 0 && m.seen[&live[0]].live == nil {
		m.seen[&live[0]] = sighting{live, slices.Clone(live)}
	}
}

// meetValue meets the object or array a stored value refers to.
func (m *bufMon) meetValue(v interp.Value) {
	switch v.Kind() {
	case interp.KObject:
		m.meet(v.Object().Slots)
	case interp.KArray:
		m.meet(v.Array().Elems)
	}
}

func (m *bufMon) load(p *interp.Value) interp.Value {
	if v, ok := m.buf[p]; ok {
		return v
	}
	return *p
}

func (m *bufMon) LoadField(o *interp.Object, slot int) interp.Value {
	m.n[0]++
	m.meet(o.Slots)
	return m.load(&o.Slots[slot])
}

func (m *bufMon) StoreField(o *interp.Object, slot int, v interp.Value) {
	m.n[1]++
	m.meet(o.Slots)
	m.meetValue(v)
	m.buf[&o.Slots[slot]] = v
}

func (m *bufMon) LoadElem(a *interp.Array, idx int) interp.Value {
	m.n[2]++
	m.meet(a.Elems)
	return m.load(&a.Elems[idx])
}

func (m *bufMon) StoreElem(a *interp.Array, idx int, v interp.Value) {
	m.n[3]++
	m.meet(a.Elems)
	m.meetValue(v)
	m.buf[&a.Elems[idx]] = v
}

// firstDiff shows got and want from a little before where they first
// differ.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-20, 0)
	return fmt.Sprintf("at byte %d got %q, want %q", i, got[from:min(i+40, len(got))], want[from:min(i+40, len(want))])
}

// heapDump renders everything ip's globals reach, each slot and element
// read through load; an object is numbered at its first visit.
func heapDump(ip *interp.Interp, load func(*interp.Value) interp.Value) string {
	var b strings.Builder
	ids := map[*interp.Object]int{}
	var walk func(v interp.Value)
	walk = func(v interp.Value) {
		switch v.Kind() {
		case interp.KObject:
			o := v.Object()
			if id, ok := ids[o]; ok {
				fmt.Fprintf(&b, "#%d ", id)
				return
			}
			ids[o] = len(ids)
			fmt.Fprintf(&b, "#%d{", ids[o])
			for i := range o.Slots {
				walk(load(&o.Slots[i]))
			}
			b.WriteString("} ")
		case interp.KArray:
			b.WriteString("[")
			a := v.Array()
			for i := range a.Elems {
				walk(load(&a.Elems[i]))
			}
			b.WriteString("] ")
		default:
			fmt.Fprintf(&b, "%v ", v.Any())
		}
	}
	for _, g := range ip.Prog.GlobalSeq {
		walk(interp.ObjectValue(ip.Globals[g.Name]))
		b.WriteString("\n")
	}
	return b.String()
}
