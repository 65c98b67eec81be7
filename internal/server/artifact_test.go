package server

// Tests for the fleet-facing serving features: the shared artifact
// tier (publish on cold load, adopt on a peer's miss) and /v1/analyze
// request batching.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"commute"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

func TestArtifactAdoption(t *testing.T) {
	// Two replicas sharing one blob tier: the first pays the full
	// pipeline and publishes; the second must adopt the artifact
	// instead of re-analyzing.
	blobs := cache.NewMemStore()
	_, owner := newTestServer(t, Config{Blobs: blobs, BatchLinger: -1})
	_, cold := newTestServer(t, Config{Blobs: blobs, BatchLinger: -1})
	req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}, Emit: true}

	resp, data := post(t, owner, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner analyze = %d: %s", resp.StatusCode, data)
	}
	var ownerResp api.AnalyzeResponse
	if err := json.Unmarshal(data, &ownerResp); err != nil {
		t.Fatal(err)
	}
	if ownerResp.Cache != "miss" {
		t.Fatalf("owner cache = %q, want miss", ownerResp.Cache)
	}
	if blobs.Len() != 1 {
		t.Fatalf("blob tier holds %d artifacts after cold load, want 1", blobs.Len())
	}

	resp, data = post(t, cold, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold-replica analyze = %d: %s", resp.StatusCode, data)
	}
	var adopted api.AnalyzeResponse
	if err := json.Unmarshal(data, &adopted); err != nil {
		t.Fatal(err)
	}
	if adopted.Cache != "adopt" {
		t.Fatalf("cold-replica cache = %q, want adopt", adopted.Cache)
	}
	if adopted.Key != ownerResp.Key {
		t.Fatalf("adopted key %s != owner key %s", adopted.Key, ownerResp.Key)
	}
	if len(adopted.Methods) != len(ownerResp.Methods) {
		t.Fatalf("adopted reports %d methods, owner %d", len(adopted.Methods), len(ownerResp.Methods))
	}
	if adopted.ParallelSource == "" || adopted.ParallelSource != ownerResp.ParallelSource {
		t.Fatal("adopted emitted source differs from the owner's")
	}

	ownerSt, coldSt := statusz(t, owner), statusz(t, cold)
	if ownerSt.ArtifactsPublished != 1 {
		t.Fatalf("owner published = %d, want 1", ownerSt.ArtifactsPublished)
	}
	if coldSt.CacheAdoptions != 1 {
		t.Fatalf("cold replica adoptions = %d, want 1", coldSt.CacheAdoptions)
	}
	// The adopting replica must never have run the pipeline.
	if lc := coldSt.Endpoints["load-cold"]; lc.Requests != 0 {
		t.Fatalf("cold replica ran %d full loads, want 0", lc.Requests)
	}
	// Repeat adoption is served from the in-memory bundle LRU without
	// another blob fetch, still reported as "adopt".
	resp, data = post(t, cold, "/v1/analyze", req)
	var again api.AnalyzeResponse
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || again.Cache != "adopt" {
		t.Fatalf("repeat adopt = %d cache %q, want 200 adopt", resp.StatusCode, again.Cache)
	}
	if st := statusz(t, cold); st.CacheAdoptions != 1 {
		t.Fatalf("repeat adopt re-fetched the blob: adoptions = %d, want 1", st.CacheAdoptions)
	}
}

// TestOldArtifactIsNotAdopted: a blob tier shared with a replica of an
// older build holds, under the key this build computes, a bundle of the
// previous format, whose parallel source that build emitted. The key
// does not name the revision, so only the frame's version keeps this
// replica from serving the old listing: it loads the program itself.
func TestOldArtifactIsNotAdopted(t *testing.T) {
	req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}, Emit: true}
	name, source, opts, err := resolveSource(req.SourceRequest)
	if err != nil {
		t.Fatal(err)
	}
	key := commute.Fingerprint(name, source, opts)
	frame, err := api.EncodeArtifact(&api.ArtifactBundle{Fingerprint: key, Name: name, ParallelSource: "// an older build's listing\n"})
	if err != nil {
		t.Fatal(err)
	}
	blobs := cache.NewMemStore()
	if err := blobs.Put(key, bytes.Replace(frame, []byte("commute-artifact/4 "), []byte("commute-artifact/3 "), 1)); err != nil {
		t.Fatal(err)
	}
	_, replica := newTestServer(t, Config{Blobs: blobs, BatchLinger: -1})

	resp, data := post(t, replica, "/v1/analyze", req)
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ar.Cache != "miss" {
		t.Fatalf("analyze = %d cache %q, want 200 miss (a cold load)", resp.StatusCode, ar.Cache)
	}
	sys, err := commute.LoadOpts(name, source, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := sys.Plan.EmitParallelSource(sys.File); ar.ParallelSource != want {
		t.Fatalf("served parallel source %.60q, want this build's %.60q", ar.ParallelSource, want)
	}
	if st := statusz(t, replica); st.CacheAdoptions != 0 || st.Endpoints["load-cold"].Requests != 1 {
		t.Fatalf("adoptions = %d, cold loads = %d; want 0 and 1", st.CacheAdoptions, st.Endpoints["load-cold"].Requests)
	}
}

func TestArtifactEndpointServesOwnerBundle(t *testing.T) {
	// Peers pull artifacts over GET /v1/artifact/{key}; an owner with a
	// warm system must serve a decodable, integrity-checked bundle.
	_, owner := newTestServer(t, Config{Blobs: cache.NewMemStore(), BatchLinger: -1})
	resp, data := post(t, owner, "/v1/analyze", api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, data)
	}
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}

	hr, err := owner.Client().Get(owner.URL + "/v1/artifact/" + ar.Key)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, hr)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch = %d: %s", hr.StatusCode, raw)
	}
	b, err := api.DecodeArtifact(ar.Key, raw)
	if err != nil {
		t.Fatalf("served bundle fails integrity check: %v", err)
	}
	if b.Name != "graph.mc" || len(b.Methods) != len(ar.Methods) {
		t.Fatalf("bundle = name %q, %d methods; want graph.mc, %d", b.Name, len(b.Methods), len(ar.Methods))
	}

	hr, err = owner.Client().Get(owner.URL + "/v1/artifact/" + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, hr)
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("missing artifact = %d, want 404", hr.StatusCode)
	}
}

func TestAnalyzeBatchingCoalesces(t *testing.T) {
	// A stampede of identical analyze requests must produce one
	// response computation: followers are answered with the leader's
	// bytes and counted in the coalesce counters. A long linger makes
	// the test deterministic — every request after the first joins
	// either the in-flight batch or the lingering completed one.
	s, ts := newTestServer(t, Config{BatchLinger: 250 * time.Millisecond})
	req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}}

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts, "/v1/analyze", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d = %d: %s", i, resp.StatusCode, data)
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()

	coalesced := s.coalesced.Load()
	if coalesced == 0 {
		t.Fatal("no requests coalesced across a 16-way identical stampede")
	}
	// Every coalesced follower got the leader's exact bytes; spot-check
	// that all bodies decode to the same key and report count.
	var first api.AnalyzeResponse
	if err := json.Unmarshal(bodies[0], &first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		var got api.AnalyzeResponse
		if err := json.Unmarshal(bodies[i], &got); err != nil {
			t.Fatal(err)
		}
		if got.Key != first.Key || len(got.Methods) != len(first.Methods) {
			t.Fatalf("response %d diverged: key %s, %d methods", i, got.Key, len(got.Methods))
		}
	}
	st := statusz(t, ts)
	if st.BatchCoalesced != coalesced {
		t.Fatalf("statusz batch_coalesced = %d, counter = %d", st.BatchCoalesced, coalesced)
	}
	if ep := st.Endpoints["analyze"]; ep.Coalesced != coalesced {
		t.Fatalf("analyze endpoint coalesced = %d, want %d", ep.Coalesced, coalesced)
	}
	// Only one actual load happened under the stampede.
	if cs := s.Cache().Snapshot(); cs.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", cs.Misses)
	}
}

func TestAnalyzeBatchKeySeparatesEmit(t *testing.T) {
	// emit=true and emit=false responses differ; they must never share
	// a batch even under a generous linger.
	_, ts := newTestServer(t, Config{BatchLinger: 250 * time.Millisecond})
	src := api.SourceRequest{App: "graph"}

	_, plain := post(t, ts, "/v1/analyze", api.AnalyzeRequest{SourceRequest: src})
	_, emitted := post(t, ts, "/v1/analyze", api.AnalyzeRequest{SourceRequest: src, Emit: true})
	var p, e api.AnalyzeResponse
	if err := json.Unmarshal(plain, &p); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(emitted, &e); err != nil {
		t.Fatal(err)
	}
	if p.ParallelSource != "" {
		t.Fatal("emit=false response carries parallel source")
	}
	if e.ParallelSource == "" {
		t.Fatal("emit=true response coalesced onto the emit=false batch")
	}
}

func TestBatchLeaderErrorSharedThenRetryable(t *testing.T) {
	// A leader that fails (bad program) publishes its error to the
	// batch; the linger then expires and a later request gets a fresh
	// computation, not the cached failure forever.
	_, ts := newTestServer(t, Config{BatchLinger: 1 * time.Millisecond})
	bad := api.AnalyzeRequest{SourceRequest: api.SourceRequest{Name: "bad.mc", Source: "void main( {}"}}
	resp, _ := post(t, ts, "/v1/analyze", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad program = %d, want 422", resp.StatusCode)
	}
	time.Sleep(20 * time.Millisecond)
	resp, _ = post(t, ts, "/v1/analyze", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad program after linger = %d, want 422", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
