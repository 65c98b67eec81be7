package server

// Tests for the shared artifact tier (publish on cold load, adopt on a
// peer's miss) and for what /v1/analyze answers on each of its three
// paths: a warm hit, an adopted artifact and a cold load. Every reply is
// built from one bundle, so the paths agree by construction; these
// tests hold them to it.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"commute"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

func TestArtifactAdoption(t *testing.T) {
	// Two replicas sharing one blob tier: the first pays the full
	// pipeline and publishes; the second must adopt the artifact
	// instead of re-analyzing, on every request, each one a tier read
	// and a checked decode, each reply the owner's but for the cache
	// word and the time taken.
	blobs := cache.NewMemStore()
	_, owner := newTestServer(t, Config{Blobs: blobs})
	_, peer := newTestServer(t, Config{Blobs: blobs})
	req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}, Emit: true}
	reply := func(ts *httptest.Server, cache string) map[string]any {
		t.Helper()
		resp, data := post(t, ts, "/v1/analyze", req)
		var r map[string]any
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || r["cache"] != cache {
			t.Fatalf("analyze = %d cache %v, want 200 %s", resp.StatusCode, r["cache"], cache)
		}
		delete(r, "cache")
		delete(r, "elapsed_ms")
		return r
	}

	miss := reply(owner, "miss")
	if blobs.Len() != 1 {
		t.Fatalf("blob tier holds %d artifacts after cold load, want 1", blobs.Len())
	}
	if miss["parallel_source"] == nil {
		t.Fatal("the miss reply carries no parallel source")
	}
	for i := 0; i < 2; i++ {
		if adopted := reply(peer, "adopt"); !reflect.DeepEqual(adopted, miss) {
			t.Fatalf("adopted reply %d differs from the owner's miss:\n%v\n%v", i, adopted, miss)
		}
	}

	ownerSt, peerSt := statusz(t, owner), statusz(t, peer)
	if ownerSt.ArtifactsPublished != 1 {
		t.Fatalf("owner published = %d, want 1", ownerSt.ArtifactsPublished)
	}
	if peerSt.CacheAdoptions != 2 || peerSt.Endpoints["load-adopt"].Requests != 2 {
		t.Fatalf("peer adoptions = %d, load-adopt = %d; want 2 tier reads", peerSt.CacheAdoptions, peerSt.Endpoints["load-adopt"].Requests)
	}
	// The adopting replica must never have run the pipeline.
	if lc := peerSt.Endpoints["load-cold"]; lc.Requests != 0 {
		t.Fatalf("peer ran %d full loads, want 0", lc.Requests)
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
	_, replica := newTestServer(t, Config{Blobs: blobs})

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

func TestAnalyzeEmitOnEveryPath(t *testing.T) {
	// emit=true carries the parallel source and emit=false omits it, on
	// the miss, the hit and the adopt path alike.
	src := api.SourceRequest{App: "graph"}
	for _, emit := range []bool{false, true} {
		blobs := cache.NewMemStore()
		_, owner := newTestServer(t, Config{Blobs: blobs})
		_, cold := newTestServer(t, Config{Blobs: blobs})
		req := api.AnalyzeRequest{SourceRequest: src, Emit: emit}
		var first string
		for _, step := range []struct {
			ts    *httptest.Server
			cache string
		}{{owner, "miss"}, {owner, "hit"}, {cold, "adopt"}} {
			resp, data := post(t, step.ts, "/v1/analyze", req)
			var ar api.AnalyzeResponse
			if err := json.Unmarshal(data, &ar); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || ar.Cache != step.cache {
				t.Fatalf("emit=%v: analyze = %d cache %q, want 200 %s", emit, resp.StatusCode, ar.Cache, step.cache)
			}
			if emit != (ar.ParallelSource != "") {
				t.Fatalf("emit=%v: the %s response carries %d bytes of parallel source", emit, ar.Cache, len(ar.ParallelSource))
			}
			if step.cache == "miss" {
				first = ar.ParallelSource
			} else if ar.ParallelSource != first {
				t.Fatalf("emit=%v: the %s response's parallel source differs from the miss's", emit, ar.Cache)
			}
		}
	}
}

// TestAnalyzePathsAgree: the miss reply comes from the bundle a cold
// load publishes, the adopt reply from that bundle decoded, the hit reply
// from one rendered again, so for one program the three agree in every
// field but the cache word and the time taken.
// Water is the app whose plan replicates accumulations, the one that
// reads class layouts while it plans.
func TestAnalyzePathsAgree(t *testing.T) {
	for _, app := range []string{"graph", "water"} {
		blobs := cache.NewMemStore()
		_, owner := newTestServer(t, Config{Blobs: blobs})
		_, peer := newTestServer(t, Config{Blobs: blobs})
		req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: app}, Emit: true}
		var first map[string]any
		for _, step := range []struct {
			ts    *httptest.Server
			cache string
		}{{owner, "miss"}, {peer, "adopt"}, {owner, "hit"}} {
			resp, data := post(t, step.ts, "/v1/analyze", req)
			var reply map[string]any
			if err := json.Unmarshal(data, &reply); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || reply["cache"] != step.cache {
				t.Fatalf("%s: analyze = %d cache %v, want 200 %s", app, resp.StatusCode, reply["cache"], step.cache)
			}
			delete(reply, "cache")
			delete(reply, "elapsed_ms")
			if first == nil {
				first = reply
			} else if !reflect.DeepEqual(reply, first) {
				t.Fatalf("%s: the %s reply differs from the miss:\n%v\n%v", app, step.cache, reply, first)
			}
		}
	}
}

func TestAnalyzeErrorNotCached(t *testing.T) {
	// A program that fails to load is answered 422 and not cached: a
	// repeat loads it again and gets a fresh 422.
	s, ts := newTestServer(t, Config{})
	bad := api.AnalyzeRequest{SourceRequest: api.SourceRequest{Name: "bad.mc", Source: "void main( {}"}}
	for i := 0; i < 2; i++ {
		resp, data := post(t, ts, "/v1/analyze", bad)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("bad program, request %d = %d: %s", i, resp.StatusCode, data)
		}
	}
	if lc := statusz(t, ts).Endpoints["load-cold"]; lc.Requests != 2 || lc.Errors != 2 {
		t.Fatalf("load-cold = %d requests, %d errors; want 2 failed loads", lc.Requests, lc.Errors)
	}
	if cs := s.Cache().Snapshot(); cs.Entries != 0 {
		t.Fatalf("cache holds %d entries after two failed loads, want 0", cs.Entries)
	}
}

func TestAnalyzeStampedeLoadsOnce(t *testing.T) {
	// A stampede of identical analyzes on a cold program loads it once:
	// the cache's singleflight is the only dedup layer, and every
	// request still gets its own full answer.
	s, ts := newTestServer(t, Config{})
	req := api.AnalyzeRequest{SourceRequest: api.SourceRequest{App: "graph"}}

	const n = 16
	answers := make([]api.AnalyzeResponse, n)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := post(t, ts, "/v1/analyze", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d = %d: %s", i, resp.StatusCode, data)
				return
			}
			if err := json.Unmarshal(data, &answers[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, a := range answers[1:] {
		if a.Key != answers[0].Key || len(a.Methods) != len(answers[0].Methods) || len(a.Methods) == 0 {
			t.Fatalf("response %d: key %s, %d methods; response 0: key %s, %d methods", i+1, a.Key, len(a.Methods), answers[0].Key, len(answers[0].Methods))
		}
	}
	if cs := s.Cache().Snapshot(); cs.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", cs.Misses)
	}
}
