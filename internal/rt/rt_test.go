package rt_test

import (
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/oracle"
	"commute/internal/rt"
)

// TestWalkerInterpreterRefused: the tree walker is the serial reference;
// the parallel runtime refuses it before running anything, and a walker
// call under an effect monitor fails rather than run unobserved.
func TestWalkerInterpreterRefused(t *testing.T) {
	sys := oracle.Load(t, "graph.mc", src.Graph)
	var out strings.Builder
	ip := interp.NewEngine(sys.Prog, &out, interp.EngineWalk)
	r := rt.New(ip, sys.Plan, 2)
	if err := r.Run(); err == nil || !strings.Contains(err.Error(), "tree walker") {
		t.Errorf("Run on a walker interpreter: err = %v, want a refusal", err)
	}
	if r.Stats != (rt.Stats{}) || out.Len() != 0 {
		t.Errorf("refused run still executed: stats %+v, output %q", r.Stats, out.String())
	}

	ctx := ip.NewCtx()
	ctx.Mon = noopMon{}
	if _, err := ip.Call(ctx, sys.Prog.Main, nil, nil); err == nil || !strings.Contains(err.Error(), "effect monitor") {
		t.Errorf("walker call under a monitor: err = %v, want a refusal", err)
	}
}

type noopMon struct{}

func (noopMon) LoadField(o *interp.Object, slot int) interp.Value     { return o.Slots[slot] }
func (noopMon) StoreField(o *interp.Object, slot int, v interp.Value) { o.Slots[slot] = v }
func (noopMon) LoadElem(a *interp.Array, idx int) interp.Value        { return a.Elems[idx] }
func (noopMon) StoreElem(a *interp.Array, idx int, v interp.Value)    { a.Elems[idx] = v }
