package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/interp"
	"commute/internal/rt"
	"commute/internal/server/api"
)

// spinSource loops forever; only a deadline or step budget stops it.
const spinSource = `
void main() {
  int i;
  i = 0;
  while (i < 1) {
    i = 0;
  }
}
`

// wide is a shipped demonstrator with its size constant raised from its
// shipped value to 4096: the same program with a region some hundred
// times the work, which is past the granularity cutoff of both runtimes.
// A test here cannot reach the plan to clear its estimates, so one that
// needs a region to open sends a program worth one.
func wide(t *testing.T, source, name string, shipped int) string {
	t.Helper()
	out := strings.Replace(source, fmt.Sprintf("const int %s = %d;", name, shipped), "const int "+name+" = 4096;", 1)
	if out == source {
		t.Fatalf("source does not declare const int %s = %d", name, shipped)
	}
	return out
}

// wideConflict is specconflict with 4096 conflicting mark(0) calls ahead
// of the two it ships with: a region worth opening that still aborts and
// still ends in last = 2, total = 3.
func wideConflict(t *testing.T) string {
	t.Helper()
	const run = "void driver::run() {\n"
	out := strings.Replace(src.SpecConflict, run, run+"  int i;\n  for (i = 0; i < 4096; i += 1) {\n    c->mark(0);\n  }\n", 1)
	if out == src.SpecConflict {
		t.Fatal("specconflict has no driver::run")
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func statusz(t *testing.T, ts *httptest.Server) api.StatusZ {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StatusZ
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	s.SetDraining()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

func TestAnalyzeCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}}

	resp, data := post(t, ts, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold analyze = %d: %s", resp.StatusCode, data)
	}
	var cold api.AnalyzeResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold request cache = %q, want miss", cold.Cache)
	}
	if len(cold.ParallelMethods) == 0 {
		t.Fatal("graph analysis found no parallel methods")
	}

	resp, data = post(t, ts, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm analyze = %d: %s", resp.StatusCode, data)
	}
	var warm api.AnalyzeResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "hit" {
		t.Fatalf("warm request cache = %q, want hit", warm.Cache)
	}
	if warm.Key != cold.Key {
		t.Fatalf("keys differ across identical requests: %s vs %s", cold.Key, warm.Key)
	}
	if len(warm.Methods) != len(cold.Methods) {
		t.Fatal("warm response reports differ from cold")
	}

	st := statusz(t, ts)
	if st.CacheHits < 1 || st.CacheMisses < 1 {
		t.Fatalf("statusz cache counters = %d hits / %d misses, want >=1 each", st.CacheHits, st.CacheMisses)
	}
	ep := st.Endpoints["analyze"]
	if ep.Requests != 2 || ep.Errors != 0 {
		t.Fatalf("analyze endpoint stats = %+v, want 2 requests 0 errors", ep)
	}
}

// TestAnalyzeCacheSpeedupBarnesHut is the acceptance bar: a second
// identical analyze of Barnes-Hut must be served from cache at least
// 10x faster than the cold request (the cold request pays parse, type
// check, §3–§4 analysis and codegen; the hit pays a map lookup and
// response assembly).
func TestAnalyzeCacheSpeedupBarnesHut(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	_, ts := newTestServer(t, Config{})
	req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "barneshut"}}

	t0 := time.Now()
	resp, data := post(t, ts, "/v1/analyze", req)
	cold := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold analyze = %d: %s", resp.StatusCode, data)
	}

	// One warm sample on a shared box is the hit plus whatever else ran
	// meanwhile; noise only ever adds, so the fastest of several is the
	// hit's cost.
	const warmRequests = 20
	var warm time.Duration
	for i := 0; i < warmRequests; i++ {
		t1 := time.Now()
		resp, data = post(t, ts, "/v1/analyze", req)
		d := time.Since(t1)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm analyze = %d: %s", resp.StatusCode, data)
		}
		var wr api.AnalyzeResponse
		if err := json.Unmarshal(data, &wr); err != nil {
			t.Fatal(err)
		}
		if wr.Cache != "hit" {
			t.Fatalf("request %d cache = %q, want hit", i+2, wr.Cache)
		}
		if i == 0 || d < warm {
			warm = d
		}
	}
	// What the bar means: every request after the first was served from
	// the one load.
	if st := statusz(t, ts); st.CacheMisses != 1 || st.CacheHits != warmRequests {
		t.Fatalf("statusz cache counters = %d misses / %d hits, want 1 / %d", st.CacheMisses, st.CacheHits, warmRequests)
	}
	// The race detector slows the cold load less than it slows a hit's
	// request round trip, so the ratio is held without it only (CI's
	// no-race step runs this test).
	if !raceEnabled && warm*10 > cold {
		t.Fatalf("cached analyze took %v vs cold %v — want >= 10x faster", warm, cold)
	}
}

// TestConcurrentFirstRuns: two runs of a program only analyzed so far
// warm the entry at once; both print what the walker prints. (That they
// share one Code is interp's TestConcurrentFirstInterpretersShareOneResolution.)
func TestConcurrentFirstRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	source := api.SourceRequest{App: "graph"}
	if resp, data := post(t, ts, "/v1/analyze", api.AnalyzeRequest{SourceRequest: source}); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, data)
	}
	want := walkerOutput(t, "graph")
	var wg sync.WaitGroup
	for _, mode := range []string{"serial", "parallel"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := post(t, ts, "/v1/run", api.RunRequest{SourceRequest: source, Mode: mode, Workers: 2})
			var rr api.RunResponse
			if err := json.Unmarshal(data, &rr); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK || rr.Output != want {
				t.Errorf("%s run = %d, output %q; want 200, %q", mode, resp.StatusCode, rr.Output, want)
			}
		}()
	}
	wg.Wait()
}

// walkerOutput is what the tree walker prints for a shipped app, on a
// system of its own.
func walkerOutput(t *testing.T, app string) string {
	t.Helper()
	name, source, _ := src.App(app)
	sys, err := commute.Load(name, source)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := sys.RunSerialEngine(interp.EngineWalk, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestRunSerialAndParallelAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	serial := api.RunRequest{SourceRequest: api.SourceRequest{App: "graph"}, Mode: "serial"}
	parallel := api.RunRequest{SourceRequest: api.SourceRequest{App: "graph"}, Mode: "parallel", Workers: 8}

	resp, data := post(t, ts, "/v1/run", serial)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serial run = %d: %s", resp.StatusCode, data)
	}
	var sr api.RunResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stats.Mode != "serial" {
		t.Fatalf("serial stats = %+v", sr.Stats)
	}

	resp, data = post(t, ts, "/v1/run", parallel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parallel run = %d: %s", resp.StatusCode, data)
	}
	var pr api.RunResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Cache != "hit" {
		t.Fatalf("parallel run after serial run cache = %q, want hit (same program)", pr.Cache)
	}
	if pr.Output != sr.Output {
		t.Fatalf("parallel output differs from serial:\nserial:   %q\nparallel: %q", sr.Output, pr.Output)
	}
	if pr.Stats.Regions == 0 {
		t.Fatalf("parallel run opened no regions: %+v", pr.Stats)
	}
}

func TestRunDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.RunRequest{
		SourceRequest: api.SourceRequest{Name: "spin.mc", Source: spinSource},
		Mode:          "serial",
		TimeoutMS:     150,
	}
	t0 := time.Now()
	resp, data := post(t, ts, "/v1/run", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("runaway run = %d: %s, want 504", resp.StatusCode, data)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", d)
	}
}

func TestRunMaxSteps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/run", api.RunRequest{
		SourceRequest: api.SourceRequest{Name: "spin.mc", Source: spinSource},
		Mode:          "parallel",
		MaxSteps:      10000,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("step-budget run = %d: %s, want 422", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "step budget") {
		t.Fatalf("error body %s, want step budget message", data)
	}
}

func TestOutputCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxOutputBytes: 64})
	src := `
void main() {
  for (int i = 0; i < 1000; i += 1)
    print(i);
}
`
	resp, data := post(t, ts, "/v1/run", api.RunRequest{
		SourceRequest: api.SourceRequest{Name: "chatty.mc", Source: src},
		Mode:          "serial",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chatty run = %d: %s", resp.StatusCode, data)
	}
	var rr api.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.OutputTruncated {
		t.Fatal("output not marked truncated")
	}
	if len(rr.Output) > 64 {
		t.Fatalf("output length %d exceeds the 64-byte cap", len(rr.Output))
	}
}

func TestSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts, "/v1/simulate", api.SimulateRequest{
		SourceRequest: api.SourceRequest{App: "graph"},
		Procs:         []int{1, 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate = %d: %s", resp.StatusCode, data)
	}
	var sim api.SimulateResponse
	if err := json.Unmarshal(data, &sim); err != nil {
		t.Fatal(err)
	}
	if len(sim.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(sim.Results))
	}
	if sim.Results[0].Procs != 1 || sim.Results[0].Speedup != 1 {
		t.Fatalf("uniprocessor point = %+v, want speedup 1", sim.Results[0])
	}
	if sim.Results[1].TimeMicros >= sim.Results[0].TimeMicros {
		t.Fatalf("4-proc time %.0fus not below 1-proc %.0fus",
			sim.Results[1].TimeMicros, sim.Results[0].TimeMicros)
	}
}

// TestSimulateDeadline: the trace run of /v1/simulate is bounded by
// DefaultTimeout, as a /v1/run is: a program that never ends is
// answered 504 within the deadline plus a second.
func TestSimulateDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, ts := newTestServer(t, Config{DefaultTimeout: timeout})
	t0 := time.Now()
	resp, data := post(t, ts, "/v1/simulate", api.SimulateRequest{
		SourceRequest: api.SourceRequest{Name: "spin.mc", Source: spinSource},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("runaway simulate = %d: %s, want 504", resp.StatusCode, data)
	}
	if d := time.Since(t0); d > timeout+time.Second {
		t.Fatalf("the simulate deadline took %v", d)
	}
}

func TestBadRequests(t *testing.T) {
	// Every body below fits the cap but the first, one byte over it,
	// which is refused whole rather than decoded up to the cap.
	_, ts := newTestServer(t, Config{})
	over := api.AnalyzeRequest{SourceRequest: api.SourceRequest{Source: "void main() {}"}}
	body, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	over.Source = strings.Repeat(" ", api.MaxBodyBytes+1-len(body)) + over.Source
	cases := []struct {
		path string
		req  any
		want int
	}{
		{"/v1/analyze", over, http.StatusRequestEntityTooLarge},
		{"/v1/analyze", api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "nope"}}, http.StatusUnprocessableEntity},
		{"/v1/analyze", api.AnalyzeRequest{}, http.StatusUnprocessableEntity},
		{"/v1/analyze", api.AnalyzeRequest{SourceRequest: api.SourceRequest{Source: "void main("}}, http.StatusUnprocessableEntity},
		{"/v1/run", api.RunRequest{SourceRequest: api.SourceRequest{App: "graph"}, Mode: "warp"}, http.StatusBadRequest},
		// The engine and scheduler are not request fields: a body still
		// carrying one is an unknown field, not a silently ignored one.
		{"/v1/run", map[string]any{"app": "graph", "engine": "walk"}, http.StatusBadRequest},
		{"/v1/run", map[string]any{"app": "graph", "sched": "central"}, http.StatusBadRequest},
		// Nor are a serial rerun of failed regions or the auto-speculation
		// confidence: the one threshold is the runtime's constant.
		{"/v1/run", map[string]any{"app": "graph", "fallback": true}, http.StatusBadRequest},
		{"/v1/run", map[string]any{"app": "graph", "speculate": "auto", "speculate_threshold": 0.3}, http.StatusBadRequest},
		{"/v1/run", api.RunRequest{SourceRequest: api.SourceRequest{App: "graph"}, Mode: "serial", MaxSteps: 5}, http.StatusBadRequest},
		{"/v1/simulate", api.SimulateRequest{SourceRequest: api.SourceRequest{App: "graph"}, Procs: []int{0}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := post(t, ts, tc.path, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %+v = %d (%s), want %d", tc.path, tc.req, resp.StatusCode, data, tc.want)
		}
		var e api.Error
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s error envelope missing: %s", tc.path, data)
		}
	}
}

// TestRunWorkersCeiling: a worker count outside [1, api.MaxRunWorkers] is a
// 400 that starts nothing — each worker would be a goroutine, and
// admission control bounds requests, not their size.
func TestRunWorkersCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	run := func(workers int) int {
		resp, _ := post(t, ts, "/v1/run", api.RunRequest{SourceRequest: api.SourceRequest{App: "graph"}, Mode: "parallel", Workers: workers})
		return resp.StatusCode
	}
	if code := run(api.MaxRunWorkers); code != http.StatusOK {
		t.Fatalf("workers %d = %d, want 200", api.MaxRunWorkers, code)
	}
	base := runtime.NumGoroutine()
	for _, workers := range []int{-3, api.MaxRunWorkers + 1, 10000000} {
		if code := run(workers); code != http.StatusBadRequest {
			t.Fatalf("workers %d = %d, want 400", workers, code)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the rejected runs, baseline %d", runtime.NumGoroutine(), base)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	// One worker, no queue: while a slow request holds the only slot,
	// every other request sheds with 429 + Retry-After.
	_, ts := newTestServer(t, Config{Workers: 1, Queue: -1})

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		post(t, ts, "/v1/run", api.RunRequest{
			SourceRequest: api.SourceRequest{Name: "spin.mc", Source: spinSource},
			Mode:          "serial",
			TimeoutMS:     1500,
		})
	}()
	<-started
	// Wait until the slow request actually occupies the worker slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := statusz(t, ts); st.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, data := post(t, ts, "/v1/analyze", api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request under full queue = %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-done

	if st := statusz(t, ts); st.Rejected < 1 {
		t.Fatalf("statusz rejected = %d, want >= 1", st.Rejected)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// Hammer one server from many clients mixing all three endpoints
	// against a shared cached system — the daemon-side version of the
	// shared-*System stress test.
	_, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp *http.Response
			var data []byte
			switch i % 3 {
			case 0:
				resp, data = post(t, ts, "/v1/analyze", api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}})
			case 1:
				resp, data = post(t, ts, "/v1/run", api.RunRequest{SourceRequest: api.SourceRequest{App: "graph"}, Mode: "parallel", Workers: 4})
			case 2:
				resp, data = post(t, ts, "/v1/simulate", api.SimulateRequest{SourceRequest: api.SourceRequest{App: "graph"}, Procs: []int{1, 4}})
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("request %d = %d: %s", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := statusz(t, ts)
	if st.CacheMisses != 1 {
		t.Errorf("16 requests for one program cost %d loads, want 1", st.CacheMisses)
	}
}

func TestGracefulDrain(t *testing.T) {
	// The embedder contract: SetDraining + http.Server.Shutdown lets
	// in-flight requests finish before the listener dies.
	s := New(Config{})
	hs := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	slowDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(api.RunRequest{
			SourceRequest: api.SourceRequest{Name: "spin.mc", Source: spinSource},
			Mode:          "serial",
			TimeoutMS:     800,
		})
		resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			slowDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()

	// Wait for the slow request to be in flight, then drain.
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	if code := <-slowDone; code != http.StatusGatewayTimeout {
		t.Fatalf("in-flight request finished with %d, want its own 504 (deadline), not a dropped connection", code)
	}
	if d := time.Since(t0); d < 200*time.Millisecond {
		t.Fatalf("shutdown returned in %v — did not wait for the in-flight request", d)
	}
}

// TestRunSpeculation: the daemon's speculation surface. A disjoint
// rejected extent commits, a conflicting one aborts and re-runs serially
// with the exact serial output, and both counters accumulate into
// /statusz.
func TestRunSpeculation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The analysis scores the rejected extent with fractional confidence
	// and marks it speculation-eligible.
	resp, data := post(t, ts, "/v1/analyze", api.AnalyzeRequest{
		SourceRequest: api.SourceRequest{App: "specdisjoint"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, data)
	}
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	eligible := false
	for _, m := range ar.Methods {
		if m.Method == "table::fill" {
			if m.Parallel {
				t.Fatal("fill must be rejected")
			}
			if m.Confidence <= 0 || m.Confidence >= 1 {
				t.Fatalf("fill confidence = %v, want in (0,1)", m.Confidence)
			}
			eligible = m.SpeculationEligible
		}
	}
	if !eligible {
		t.Fatal("fill must be speculation-eligible")
	}

	// The built-in apps' regions are under the granularity cutoff and run
	// serially (TestRunDeclinesTinyRegions); what speculates here is each
	// one widened past it.
	run := func(app, source string) api.RunResponse {
		t.Helper()
		resp, data := post(t, ts, "/v1/run", api.RunRequest{
			SourceRequest: api.SourceRequest{Name: app + ".mc", Source: source},
			Mode:          "parallel",
			Workers:       4,
			Speculate:     "force",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s = %d: %s", app, resp.StatusCode, data)
		}
		var rr api.RunResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}

	if rr := run("specdisjoint", wide(t, src.SpecDisjoint, "N", 16)); rr.Stats.SpeculationCommits == 0 || rr.Stats.SpeculationAborts != 0 {
		t.Fatalf("specdisjoint stats = %+v, want commits without aborts", rr.Stats)
	}
	rr := run("specconflict", wideConflict(t))
	if rr.Stats.SpeculationAborts == 0 || rr.Stats.SpeculationCommits != 0 {
		t.Fatalf("specconflict stats = %+v, want aborts without commits", rr.Stats)
	}
	if rr.Output != "2 3\n" {
		t.Fatalf("specconflict output = %q, want the serial rerun's %q", rr.Output, "2 3\n")
	}

	// Speculation is rejected for serial mode, and bad modes 400.
	resp, _ = post(t, ts, "/v1/run", api.RunRequest{
		SourceRequest: api.SourceRequest{App: "specconflict"},
		Mode:          "serial",
		Speculate:     "force",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("serial+speculate = %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/v1/run", api.RunRequest{
		SourceRequest: api.SourceRequest{App: "specconflict"},
		Speculate:     "maybe",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad speculate word = %d, want 400", resp.StatusCode)
	}

	st := statusz(t, ts)
	if st.SpeculationCommits == 0 || st.SpeculationAborts == 0 {
		t.Fatalf("statusz speculation counters = %d commits / %d aborts, want both nonzero",
			st.SpeculationCommits, st.SpeculationAborts)
	}
}

func TestRunConditional(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The analysis surfaces the synthesized condition structurally:
	// rendered predicate, predicate tree, and the runtime guard.
	resp, data := post(t, ts, "/v1/analyze", api.AnalyzeRequest{
		SourceRequest: api.SourceRequest{App: "condhash"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, data)
	}
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ar.Methods {
		if m.Method != "table::ingest" {
			continue
		}
		found = true
		if m.Parallel {
			t.Fatal("ingest must be rejected by the binary analysis")
		}
		if !m.ConditionalEligible {
			t.Fatalf("ingest not conditional-eligible: %+v", m)
		}
		if m.Condition == "" || m.ConditionTree == nil {
			t.Fatalf("ingest condition missing: %+v", m)
		}
		if m.Guard == "" || m.GuardTree == nil {
			t.Fatalf("ingest guard missing: %+v", m)
		}
		if !strings.Contains(m.Guard, "ec:table.mode@global:H") {
			t.Fatalf("guard %q does not read the mode extent constant", m.Guard)
		}
		if m.GuardTree.Kind != "atom" || m.GuardTree.Expr != m.Guard {
			t.Fatalf("guard tree %+v does not mirror rendered guard %q", m.GuardTree, m.Guard)
		}
	}
	if !found {
		t.Fatal("no report for table::ingest")
	}

	// The built-in table's regions are under the granularity cutoff and
	// run serially; what the guard decides here is the table widened
	// past it, under the built-in apps' names.
	wideApps := map[string]string{
		"condhash":        wide(t, src.CondHashBase, "NBUCKET", 8) + src.CondHashMain(0, 6),
		"condhash-serial": wide(t, src.CondHashBase, "NBUCKET", 8) + src.CondHashMain(3, 6),
	}
	sys, err := commute.Load("condhash.mc", wideApps["condhash"])
	if err != nil {
		t.Fatal(err)
	}
	if ingest := sys.Prog.MethodByFullName("table::ingest"); rt.Declines(sys.Plan, ingest) || sys.Plan.EmitDeclines(ingest) {
		t.Fatal("the widened table's root is under an entry cost: the interpreter's or the emitter's")
	}
	run := func(app, mode string, conditional bool) (api.RunResponse, int) {
		t.Helper()
		resp, data := post(t, ts, "/v1/run", api.RunRequest{
			SourceRequest: api.SourceRequest{Name: app + ".mc", Source: wideApps[app]},
			Mode:          mode,
			Workers:       4,
			Conditional:   conditional,
		})
		var rr api.RunResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, &rr); err != nil {
				t.Fatal(err)
			}
		}
		return rr, resp.StatusCode
	}

	// Serial references for both guard outcomes.
	serialTrue, code := run("condhash", "serial", false)
	if code != http.StatusOK {
		t.Fatalf("serial condhash = %d", code)
	}
	serialFalse, code := run("condhash-serial", "serial", false)
	if code != http.StatusOK {
		t.Fatalf("serial condhash-serial = %d", code)
	}

	// Guard true: parallel regions, bit-identical output.
	rr, code := run("condhash", "parallel", true)
	if code != http.StatusOK {
		t.Fatalf("conditional condhash = %d", code)
	}
	if rr.Output != serialTrue.Output {
		t.Fatalf("guard-true output %q, want serial %q", rr.Output, serialTrue.Output)
	}
	if rr.Stats.GuardParallel == 0 || rr.Stats.GuardSerial != 0 || rr.Stats.Regions == 0 {
		t.Fatalf("guard-true stats = %+v, want parallel guard entries", rr.Stats)
	}

	// Guard false: serial path, counter bumped, identical output.
	rr, code = run("condhash-serial", "parallel", true)
	if code != http.StatusOK {
		t.Fatalf("conditional condhash-serial = %d", code)
	}
	if rr.Output != serialFalse.Output {
		t.Fatalf("guard-false output %q, want serial %q", rr.Output, serialFalse.Output)
	}
	if rr.Stats.GuardSerial == 0 || rr.Stats.GuardParallel != 0 || rr.Stats.Regions != 0 {
		t.Fatalf("guard-false stats = %+v, want serial guard entries", rr.Stats)
	}

	// conditional requires mode=parallel.
	if _, code := run("condhash", "serial", true); code != http.StatusBadRequest {
		t.Fatalf("serial+conditional = %d, want 400", code)
	}

	st := statusz(t, ts)
	if st.GuardParallel == 0 || st.GuardSerial == 0 {
		t.Fatalf("statusz guard counters = %d parallel / %d serial, want both nonzero",
			st.GuardParallel, st.GuardSerial)
	}
}

// TestRunDeclinesTinyRegions: the built-in demonstrators' regions are a
// few hundred cost units, under what a region costs to enter, so a
// parallel run of one opens none whatever the policies say — and says
// so: regions_declined in the run's stats and on /statusz.
func TestRunDeclinesTinyRegions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	run := func(req api.RunRequest) api.RunResponse {
		t.Helper()
		resp, data := post(t, ts, "/v1/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %+v = %d: %s", req, resp.StatusCode, data)
		}
		var rr api.RunResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	var declined int64
	for _, tc := range []struct {
		app  string
		want int64 // region entries in one run of the app
	}{{"condhash", 6}, {"condhash-serial", 6}, {"specdisjoint", 1}, {"specconflict", 1}} {
		source := api.SourceRequest{App: tc.app}
		serial := run(api.RunRequest{SourceRequest: source, Mode: "serial"})
		rr := run(api.RunRequest{SourceRequest: source, Mode: "parallel", Workers: 4, Conditional: true, Speculate: "force"})
		if rr.Output != serial.Output {
			t.Errorf("%s: output %q, want serial %q", tc.app, rr.Output, serial.Output)
		}
		st := rr.Stats
		if st.RegionsDeclined != tc.want || st.Regions+st.GuardParallel+st.GuardSerial+st.SpeculativeRegions+st.Tasks != 0 {
			t.Errorf("%s: stats %+v, want %d regions declined and nothing else", tc.app, st, tc.want)
		}
		declined += tc.want
	}
	if st := statusz(t, ts); st.RegionsDeclined != declined {
		t.Errorf("statusz regions_declined = %d, want %d", st.RegionsDeclined, declined)
	}
}
