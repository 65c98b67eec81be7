package codegen

import (
	"sync"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/frontend/parser"
	"commute/internal/frontend/types"
)

// shippedApps is every program under internal/apps/src, as shipped.
var shippedApps = map[string]string{
	"barneshut":    src.BarnesHut,
	"water":        src.Water,
	"graph":        src.Graph,
	"condhash":     src.CondHashBase + src.CondHashMain(0, 6),
	"specdisjoint": src.SpecDisjoint,
	"specconflict": src.SpecConflict,
}

// TestGeneratesConcurrencyMemo: the memoized accessor agrees with the
// uncached walk on every method of every shipped app under every plan
// flavour, answers repeat queries without allocating, and is safe to
// query first from several goroutines at once (runs sharing a cached
// System do exactly that; run under -race).
func TestGeneratesConcurrencyMemo(t *testing.T) {
	flavours := []Options{{}, {SpeculateRejected: true}, {ConditionalGuards: true, SpeculateRejected: true}}
	for name, source := range shippedApps {
		f, err := parser.Parse(name+".mc", source)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		prog, err := types.Check(f)
		if err != nil {
			t.Fatalf("%s: check: %v", name, err)
		}
		for _, opt := range flavours {
			plan := BuildWithOptions(core.New(prog), opt)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, m := range prog.Methods {
						plan.GeneratesConcurrency(m)
					}
				}()
			}
			wg.Wait()
			for _, m := range prog.Methods {
				want := plan.generatesConcurrency(m, make(map[*types.Method]bool))
				if got := plan.GeneratesConcurrency(m); got != want {
					t.Errorf("%s %+v: GeneratesConcurrency(%s) = %v, uncached walk says %v", name, opt, m.FullName(), got, want)
				}
				if n := testing.AllocsPerRun(10, func() { plan.GeneratesConcurrency(m) }); n != 0 {
					t.Errorf("%s: repeat GeneratesConcurrency(%s) allocates %v times", name, m.FullName(), n)
				}
			}
		}
	}
}
