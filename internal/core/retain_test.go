package core_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"testing"
	"weak"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/oracle"
)

// TestLoadHoldsNoTable: the analysis behind a loaded System has dropped
// its intern table by the time Load returns, and once an analysis has
// published its last report nothing it keeps reaches the table.
func TestLoadHoldsNoTable(t *testing.T) {
	for name, source := range map[string]string{"graph": src.Graph, "barneshut": src.BarnesHut, "water": src.Water} {
		sys, err := commute.Load(name+".mc", source)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Analysis.Table() != nil {
			t.Errorf("%s: the analysis behind Load still holds its intern table", name)
		}

		a := core.New(mustCheck(t, name, source))
		tab := weak.Make(a.Table())
		if tab.Value() == nil {
			t.Fatalf("%s: a fresh analysis has no intern table", name)
		}
		reports := a.AnalyzeAll()
		runtime.GC()
		if tab.Value() != nil {
			t.Errorf("%s: the intern table outlives the analysis's last report", name)
		}
		runtime.KeepAlive(reports)
		runtime.KeepAlive(a)
	}
}

// classDecl matches a class declaration and captures its name.
var classDecl = regexp.MustCompile(`class (\w+)`)

// renamed gives every class of source the suffix, so that programs
// renamed apart share no symbolic expression.
func renamed(source, suffix string) string {
	for _, m := range classDecl.FindAllStringSubmatch(source, -1) {
		source = regexp.MustCompile(`\b`+m[1]+`\b`).ReplaceAllString(source, m[1]+suffix)
	}
	return source
}

// TestLoadsRetainNothing: a load leaves nothing behind once its System
// is dropped, however many distinct programs came before. The live heap
// after 300 loads of distinct generated programs, their classes renamed
// apart, is within a few MB of the heap after the first 30; a
// process-wide expression table grows it by tens of KB per load.
func TestLoadsRetainNothing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	loads := 0
	load := func(n int) uint64 {
		for range n {
			loads++
			if _, err := commute.Load(fmt.Sprintf("draw%d.mc", loads), renamed(oracle.Draw(r), fmt.Sprint("_", loads))); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at30 := load(30)
	at300 := load(270)
	t.Logf("live heap: %.1f MB after 30 loads, %.1f MB after 300", float64(at30)/(1<<20), float64(at300)/(1<<20))
	if at300 > at30+2<<20 {
		t.Errorf("270 more loads grew the live heap by %.1f MB (bound 2 MB): something process-wide keeps what loads build",
			(float64(at300)-float64(at30))/(1<<20))
	}
}
