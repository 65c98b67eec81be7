package commute_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/core"
	"commute/internal/server"
)

// TestAnalysisConcurrencyStress hammers the analysis pipeline the way a
// busy daemon does: 16 goroutines share one fresh Analysis per
// application (graph, Barnes-Hut, Water), mixing AnalyzeAll with
// per-method IsParallel lookups, while a live commuted server
// concurrently cold-loads and serves /v1/analyze for the same
// programs. Run under -race, it verifies the
// report cells, effects memos, pair cache, and each analysis's
// expression intern table publish safely under contention, and that
// every goroutine observes the same published reports.
func TestAnalysisConcurrencyStress(t *testing.T) {
	apps := map[string]string{
		"graph.mc":     src.Graph,
		"barneshut.mc": src.BarnesHut,
		"water.mc":     src.Water,
	}
	analyses := make(map[string]*core.Analysis, len(apps))
	for name, source := range apps {
		sys, err := commute.Load(name, source)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		analyses[name] = core.New(sys.Prog)
	}

	srv := server.New(server.Config{Workers: 4, CacheBytes: 1 << 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const goroutines = 16
	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for name, a := range analyses {
					// Shared-Analysis reads: every report and a few
					// single-method lookups racing against them.
					reports := a.AnalyzeAll()
					if len(reports) == 0 {
						errc <- fmt.Errorf("goroutine %d: %s produced no reports", g, name)
						return
					}
					for _, rep := range reports {
						if again := a.IsParallel(rep.Method); again != rep {
							errc <- fmt.Errorf("goroutine %d: %s %s: IsParallel returned a different *MethodReport than AnalyzeAll",
								g, name, rep.Method.FullName())
							return
						}
					}
				}
				// Every fourth goroutine also drives the daemon, so server
				// cold loads (their own Analysis instances) run concurrently
				// with the in-process reads above. The tiny cache budget
				// forces evictions and therefore repeated cold loads.
				if g%4 == 0 {
					app := []string{"quickstart", "barneshut", "water"}[round%3]
					body, _ := json.Marshal(map[string]string{"app": app})
					resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
					if err != nil {
						errc <- fmt.Errorf("goroutine %d: /v1/analyze: %v", g, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("goroutine %d: /v1/analyze %s: status %d", g, app, resp.StatusCode)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
