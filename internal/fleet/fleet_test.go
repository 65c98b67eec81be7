package fleet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"commute/internal/server/api"
)

// newRouter builds a router the test closes when it ends.
func newRouter(t testing.TB, cfg Config) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// fingerprint is the i-th test key, shaped like commute.Fingerprint.
func fingerprint(i int) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strconv.Itoa(i))))
}

var shardURLs = []string{"http://a", "http://b", "http://c", "http://d", "http://e", "http://f"}

// TestRendezvousDeterministicAndBalanced: two routers over one shard
// list place every key alike, and each shard owns its 1/N share of
// the keys to within 5 %.
func TestRendezvousDeterministicAndBalanced(t *testing.T) {
	const keys = 10000
	for _, n := range []int{2, 3, 5} {
		r1 := newRouter(t, Config{Shards: shardURLs[:n]})
		r2 := newRouter(t, Config{Shards: shardURLs[:n]})
		counts := map[string]int{}
		for i := 0; i < keys; i++ {
			key := fingerprint(i)
			s1, s2 := r1.RouteKey(key), r2.RouteKey(key)
			if s1 != s2 {
				t.Fatalf("N=%d: two routers disagree on %q: %s vs %s", n, key, s1, s2)
			}
			counts[s1]++
		}
		want := 1 / float64(n)
		for _, s := range shardURLs[:n] {
			if share := float64(counts[s]) / keys; share < want*0.95 || share > want*1.05 {
				t.Fatalf("N=%d: shard %s owns %.2f%% of keys, want %.2f%% ± 5%% (%v)", n, s, share*100, want*100, counts)
			}
		}
	}
}

// TestRendezvousStableUnderShardGrowth: a shard added to the list takes
// some keys and moves no key anywhere else.
func TestRendezvousStableUnderShardGrowth(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		before := newRouter(t, Config{Shards: shardURLs[:n]})
		after := newRouter(t, Config{Shards: shardURLs[:n+1]})
		added := shardURLs[n]
		moved := 0
		for i := 0; i < 2000; i++ {
			key := fingerprint(i)
			was, is := before.RouteKey(key), after.RouteKey(key)
			if was != is && is != added {
				t.Fatalf("N=%d: key %q moved from %s to %s, not to the added %s", n, key, was, is, added)
			}
			if is == added {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("N=%d: the added shard took no keys", n)
		}
	}
}

// TestRendezvousStableUnderShardLoss: while a shard is down its keys
// spread across the survivors, and every other key keeps its owner.
func TestRendezvousStableUnderShardLoss(t *testing.T) {
	rt := newRouter(t, Config{Shards: shardURLs[:3]})
	rt.shards[1].down.Store(true)
	dead := rt.shards[1].url
	moved := map[string]int{}
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		owner, picked := rt.RouteKey(key), rt.pick(key, nil).url
		if owner != dead && picked != owner {
			t.Fatalf("key %q moved from live shard %s to %s when %s died", key, owner, picked, dead)
		}
		if picked == dead {
			t.Fatalf("key %q routed to the down shard", key)
		}
		if owner == dead {
			moved[picked]++
		}
	}
	if len(moved) != 2 {
		t.Fatalf("%s's keys went to %v, want both survivors", dead, moved)
	}
}

// proberRunning counts the goroutines NewRouter started: its probers.
func proberRunning() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by commute/internal/fleet.NewRouter")
}

// TestRouterCloseStopsProber: Close stops the router's prober, and a
// second Close is a no-op.
func TestRouterCloseStopsProber(t *testing.T) {
	before := proberRunning()
	rt, err := NewRouter(Config{Shards: shardURLs[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if n := proberRunning(); n != before+1 {
		t.Fatalf("%d probers after NewRouter, want %d", n, before+1)
	}
	rt.Close()
	rt.Close()
	// The prober has signalled its exit; its goroutine may take a moment
	// to leave the stack dump.
	deadline := time.Now().Add(time.Second)
	for proberRunning() != before {
		if time.Now().After(deadline) {
			t.Fatalf("%d probers after Close, want %d", proberRunning(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// testShard is a stub replica that reports which shard answered.
func testShard(t *testing.T, id string, hook func(n int64, w http.ResponseWriter) bool) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil && hook(n.Add(1), w) {
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"shard": id, "path": r.URL.Path})
	}))
	t.Cleanup(ts.Close)
	return ts
}

func analyzeBody(app string) string {
	return fmt.Sprintf(`{"app":%q}`, app)
}

func postRouter(t *testing.T, rt *Router, body string) (int, map[string]string) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	out := map[string]string{}
	json.Unmarshal(rec.Body.Bytes(), &out)
	return rec.Code, out
}

func TestRouterDeterministicFingerprintRouting(t *testing.T) {
	a := testShard(t, "a", nil)
	b := testShard(t, "b", nil)
	c := testShard(t, "c", nil)
	rt := newRouter(t, Config{Shards: []string{a.URL, b.URL, c.URL}})

	// Same program → same shard, every time.
	apps := []string{"graph", "barneshut", "water", "specdisjoint", "specconflict"}
	owner := map[string]string{}
	for round := 0; round < 5; round++ {
		for _, app := range apps {
			code, out := postRouter(t, rt, analyzeBody(app))
			if code != http.StatusOK {
				t.Fatalf("analyze %s = %d", app, code)
			}
			if prev, ok := owner[app]; ok && prev != out["shard"] {
				t.Fatalf("app %s moved from shard %s to %s with all shards live", app, prev, out["shard"])
			}
			owner[app] = out["shard"]
		}
	}
	// Inline source with the same fingerprint as an app must co-route
	// with it (the router keys on fingerprint, not on request shape).
	code, out := postRouter(t, rt, `{"name":"graph.mc","source":"void main() {}"}`)
	if code != http.StatusOK {
		t.Fatalf("inline analyze = %d", code)
	}
	for round := 0; round < 3; round++ {
		_, again := postRouter(t, rt, `{"name":"graph.mc","source":"void main() {}"}`)
		if again["shard"] != out["shard"] {
			t.Fatal("identical inline program moved shards")
		}
	}
}

func TestRouterReroutesAroundDeadShard(t *testing.T) {
	a := testShard(t, "a", nil)
	b := testShard(t, "b", nil)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from the start

	rt := newRouter(t, Config{Shards: []string{a.URL, b.URL, deadURL}, Retries: 2})
	// Drive enough distinct programs that some route to the dead shard.
	sawReroute := false
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf(`{"name":"p%d.mc","source":"void main() { print(%d); }"}`, i, i)
		code, out := postRouter(t, rt, body)
		if code != http.StatusOK {
			t.Fatalf("request %d = %d", i, code)
		}
		if out["shard"] != "a" && out["shard"] != "b" {
			t.Fatalf("request %d answered by %q", i, out["shard"])
		}
	}
	req := httptest.NewRequest("GET", "/statusz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	var st api.StatusZ
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	ds := st.Shards[deadURL]
	if !ds.Down {
		t.Fatal("dead shard not marked down in statusz")
	}
	if ds.Rerouted > 0 {
		sawReroute = true
	}
	if !sawReroute {
		t.Fatalf("40 distinct programs never routed to the dead shard (counters: %+v)", st.Shards)
	}
	if ds.Errors == 0 {
		t.Fatal("dead shard has no error count")
	}
}

// gateTransport fails every request to a gated URL with a transport
// error while the gate is closed, and delegates otherwise.
type gateTransport struct {
	gated string
	open  atomic.Bool
}

func (gt *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !gt.open.Load() && strings.HasPrefix(req.URL.String(), gt.gated) {
		return nil, fmt.Errorf("gate closed for %s", gt.gated)
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestRouterProberRevivesRecoveredShard(t *testing.T) {
	a := testShard(t, "a", nil)
	b := testShard(t, "b", nil)
	gate := &gateTransport{gated: b.URL}
	rt := newRouter(t, Config{Shards: []string{a.URL, b.URL}, Retries: 2, Transport: gate})

	// Drive distinct programs until b's gate failure marks it down.
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf(`{"name":"p%d.mc","source":"void main() { print(%d); }"}`, i, i)
		if code, _ := postRouter(t, rt, body); code != http.StatusOK {
			t.Fatalf("request %d = %d", i, code)
		}
	}
	if !statuszShard(t, rt, b.URL).Down {
		t.Fatal("gated shard never marked down")
	}

	// Recover b and wait for the prober, which probes once a second, to
	// notice.
	gate.open.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for statuszShard(t, rt, b.URL).Down {
		if time.Now().After(deadline) {
			t.Fatalf("prober never revived recovered shard (stats: %+v)", statuszShard(t, rt, b.URL))
		}
		time.Sleep(5 * time.Millisecond)
	}
	bs := statuszShard(t, rt, b.URL)
	if bs.Probes == 0 || bs.Revivals == 0 {
		t.Fatalf("probe counters not bumped: %+v", bs)
	}

	// Revived shard takes traffic again: its fingerprints route home.
	sawB := false
	for i := 0; i < 40 && !sawB; i++ {
		body := fmt.Sprintf(`{"name":"p%d.mc","source":"void main() { print(%d); }"}`, i, i)
		_, out := postRouter(t, rt, body)
		sawB = out["shard"] == "b"
	}
	if !sawB {
		t.Fatal("no program routed to the revived shard")
	}
}

// statuszShard fetches one shard's /statusz entry.
func statuszShard(t *testing.T, rt *Router, url string) api.ShardStats {
	t.Helper()
	req := httptest.NewRequest("GET", "/statusz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	var st api.StatusZ
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Shards[url]
}

func TestRouterHonorsRetryAfterOn429(t *testing.T) {
	flaky := testShard(t, "flaky", func(n int64, w http.ResponseWriter) bool {
		if n == 1 {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests, api.Error{Error: "busy"})
			return true
		}
		return false
	})
	rt := newRouter(t, Config{Shards: []string{flaky.URL}, Retries: 2})
	code, out := postRouter(t, rt, analyzeBody("graph"))
	if code != http.StatusOK || out["shard"] != "flaky" {
		t.Fatalf("after 429 retry: code %d, shard %q, want 200 from flaky", code, out["shard"])
	}
	req := httptest.NewRequest("GET", "/statusz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	var st api.StatusZ
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards[flaky.URL].Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Shards[flaky.URL].Retries)
	}
}

func TestRouterRetriesExhaustTo502(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	// Retries: -1 disables retrying, so the one transport failure maps
	// to a 502 rather than falling through to the no-live-shard 503.
	rt := newRouter(t, Config{Shards: []string{deadURL}, Retries: -1})
	code, _ := postRouter(t, rt, analyzeBody("graph"))
	if code != http.StatusBadGateway {
		t.Fatalf("all shards dead = %d, want 502", code)
	}
	// With the only shard marked down, the router sheds instead of
	// hammering it until a probe revives it.
	code, _ = postRouter(t, rt, analyzeBody("graph"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("marked-down shard = %d, want 503", code)
	}
	hr := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, hr)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no live shards = %d, want 503", rec.Code)
	}
}
