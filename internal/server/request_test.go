package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

// serve sends one raw body to a server's handler, with no socket.
func serve(s *Server, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// replyFields is a reply with the fields that time the request removed.
func replyFields(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("undecodable reply %s: %v", data, err)
	}
	delete(m, "elapsed_ms")
	if st, ok := m["stats"].(map[string]any); ok {
		delete(st, "wall_ms")
	}
	return m
}

// longSource is a program over 1 KB whose text differs from its twin's
// only after the first kilobyte of the request body.
func longSource(v int) string {
	return "// " + strings.Repeat("x", 1500) + fmt.Sprintf("\nvoid main() {\n  print(%d);\n}\n", v)
}

// TestRequestMemoMatchesFresh: the request memo changes nothing but
// time. Every body goes, twice, to a server that remembers bodies and to
// a twin that decodes every one; both answer the same status and the
// same reply. Bodies that differ in whitespace or field order are
// different bodies with one fingerprint, and a body that fails to
// decode, names no program or fails the handler's checks never enters
// the memo.
func TestRequestMemoMatchesFresh(t *testing.T) {
	quote := func(s string) string { b, _ := json.Marshal(s); return string(b) }
	small := `void main() { print(7); }`
	cases := []struct {
		path, body string
		want       int
		memo       bool   // a body that decodes and resolves is remembered
		same       string // bodies with one label name one program
	}{
		{"/v1/analyze", `{"app":"graph"}`, 200, true, "graph"},
		{"/v1/analyze", ` { "app" : "graph" }`, 200, true, "graph"},
		{"/v1/analyze", `{"app":"graph","emit":true}`, 200, true, "graph"},
		{"/v1/analyze", `{"name":"p.mc","source":` + quote(small) + `}`, 200, true, "small"},
		{"/v1/analyze", `{"source":` + quote(small) + `,"name":"p.mc"}`, 200, true, "small"},
		{"/v1/analyze", `{"name":"long.mc","source":` + quote(longSource(1)) + `}`, 200, true, "long1"},
		{"/v1/analyze", `{"name":"long.mc","source":` + quote(longSource(2)) + `}`, 200, true, "long2"},
		{"/v1/analyze", `{"app":"graph"} trailing bytes`, 200, true, "graph"},
		{"/v1/analyze", `{"source":"void main("}`, 422, true, ""},
		{"/v1/run", `{"app":"graph","mode":"serial"}`, 200, true, "graph"},
		{"/v1/run", `{"mode":"serial","app":"graph"}`, 200, true, "graph"},
		{"/v1/run", `{"name":"long.mc","source":` + quote(longSource(1)) + `,"mode":"serial"}`, 200, true, "long1"},
		{"/v1/run", `{"name":"long.mc","source":` + quote(longSource(2)) + `,"mode":"serial"}`, 200, true, "long2"},
		{"/v1/simulate", `{"app":"graph","procs":[1,4]}`, 200, true, "graph"},
		{"/v1/simulate", `{"procs":[1,4],"app":"graph"}`, 200, true, "graph"},
		// Bodies that decode and resolve but that the handler refuses:
		// were they remembered, an entry could hold a field of any size.
		{"/v1/run", `{"app":"graph","mode":"warp"}`, 400, false, ""},
		{"/v1/run", `{"app":"graph","workers":100000}`, 400, false, ""},
		{"/v1/simulate", `{"app":"graph","procs":[` + strings.Repeat("1,", 5000) + `1]}`, 400, false, ""},
		{"/v1/simulate", `{"app":"graph","procs":[0]}`, 400, false, ""},
		// Malformed, unknown-field and unresolvable bodies.
		{"/v1/analyze", `{"app":`, 400, false, ""},
		{"/v1/analyze", `{"app":"graph","mode":"serial"}`, 400, false, ""},
		{"/v1/run", `{"app":"graph","engine":"walk"}`, 400, false, ""},
		{"/v1/analyze", `{"app":"nope"}`, 422, false, ""},
		{"/v1/simulate", `{}`, 422, false, ""},
		{"/v1/run", `{"mode":"serial"}`, 422, false, ""},
	}
	s, twin := New(Config{}), New(Config{})
	remembered := 0
	for round := 0; round < 2; round++ {
		keys := map[string]string{}
		for _, tc := range cases {
			before := s.memo.Len()
			code, data := serve(s, tc.path, tc.body)
			twin.memo = cache.NewMemo[memoEntry](cache.MemoEntries)
			tcode, tdata := serve(twin, tc.path, tc.body)
			if code != tc.want || tcode != tc.want {
				t.Fatalf("round %d %s %.60s: status %d, twin %d, want %d (%s)", round, tc.path, tc.body, code, tcode, tc.want, data)
			}
			got, want := replyFields(t, data), replyFields(t, tdata)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s %.60s: reply differs from a server that decodes every body:\n got %v\nwant %v", round, tc.path, tc.body, got, want)
			}
			grew := s.memo.Len() - before
			switch {
			case !tc.memo && grew != 0:
				t.Fatalf("%s %.60s (status %d) entered the memo", tc.path, tc.body, code)
			case tc.memo && round == 0 && grew != 1:
				t.Fatalf("%s %.60s: memo grew by %d on first sight, want 1", tc.path, tc.body, grew)
			case round == 1 && grew != 0:
				t.Fatalf("%s %.60s: memo grew by %d on a repeat", tc.path, tc.body, grew)
			}
			if tc.memo && round == 0 {
				remembered++
			}
			if tc.same == "" {
				continue
			}
			key, _ := got["key"].(string)
			if prev, ok := keys[tc.same]; ok && prev != key {
				t.Fatalf("%s %.60s: key %s, want %s as for every body naming %s", tc.path, tc.body, key, prev, tc.same)
			}
			keys[tc.same] = key
		}
		if keys["long1"] == keys["long2"] {
			t.Fatal("two programs with a common first kilobyte got one key")
		}
	}
	if n := s.memo.Len(); n != remembered {
		t.Fatalf("memo holds %d bodies, want %d", n, remembered)
	}
}

// TestRequestMemoAfterEviction: a byte-identical request whose program
// has left the cache falls back to the full path. A cache of one byte
// evicts every program as soon as it is loaded, so each repeat below is
// a memo hit that finds nothing warm: without a blob tier it loads the
// program again (miss), with one it adopts the published artifact.
func TestRequestMemoAfterEviction(t *testing.T) {
	analyze := `{"app":"graph"}`
	run := `{"name":"p.mc","source":"void main() { print(7); }","mode":"serial"}`
	for _, tc := range []struct {
		blobs cache.BlobStore
		word  string
	}{{nil, "miss"}, {cache.NewMemStore(), "adopt"}} {
		s := New(Config{CacheBytes: 1, Blobs: tc.blobs})
		_, first := serve(s, "/v1/analyze", analyze)
		var want api.AnalyzeResponse
		if err := json.Unmarshal(first, &want); err != nil || want.Cache != "miss" {
			t.Fatalf("first analyze: %s", first)
		}
		for i := 0; i < 2; i++ {
			code, data := serve(s, "/v1/analyze", analyze)
			var got api.AnalyzeResponse
			if err := json.Unmarshal(data, &got); err != nil || code != http.StatusOK {
				t.Fatalf("repeat analyze = %d: %s", code, data)
			}
			if got.Cache != tc.word || got.Key != want.Key || !reflect.DeepEqual(got.Methods, want.Methods) ||
				!reflect.DeepEqual(got.ParallelMethods, want.ParallelMethods) {
				t.Fatalf("repeat analyze after eviction = %s/%s %v, want %s/%s %v",
					got.Cache, got.Key, got.ParallelMethods, tc.word, want.Key, want.ParallelMethods)
			}
			code, data = serve(s, "/v1/run", run)
			var rr api.RunResponse
			if err := json.Unmarshal(data, &rr); err != nil || code != http.StatusOK {
				t.Fatalf("run = %d: %s", code, data)
			}
			if rr.Cache != "miss" || rr.Output != "7\n" {
				t.Fatalf("run after eviction = %s %q, want miss %q", rr.Cache, rr.Output, "7\n")
			}
		}
		if n := s.memo.Len(); n != 2 {
			t.Fatalf("memo holds %d bodies, want 2", n)
		}
		if cs := s.cache.Snapshot(); cs.Evictions == 0 || cs.Entries != 0 {
			t.Fatalf("cache %+v: want every program evicted", cs)
		}
	}
}

// TestRequestMemoBound: however many distinct bodies arrive, from
// however many clients, the memo holds at most its capacity.
func TestRequestMemoBound(t *testing.T) {
	const capacity = 8
	s := New(Config{})
	s.memo = cache.NewMemo[memoEntry](capacity)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*capacity; i++ {
				body := fmt.Sprintf(`{"app":"graph","name":"c%d-%d.mc"}`, c, i)
				if code, data := serve(s, "/v1/analyze", body); code != http.StatusOK {
					t.Errorf("analyze %s = %d: %s", body, code, data)
					return
				}
				if n := s.memo.Len(); n > capacity {
					t.Errorf("memo holds %d bodies, cap %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.memo.Len(); n < capacity/2 {
		t.Fatalf("memo holds %d bodies after %d distinct ones, want at least %d", n, 12*capacity, capacity/2)
	}
}

// BenchmarkAnalyzeHit is a cached /v1/analyze inside the replica's
// handler, with no socket and no batching: "memo" is a repeated body
// answered from the request memo, "decode" the same request decoded and
// fingerprinted in full.
func BenchmarkAnalyzeHit(b *testing.B) {
	name, source, _ := src.App("graph")
	body, _ := json.Marshal(api.AnalyzeRequest{SourceRequest: api.SourceRequest{Name: name, Source: source}})
	s := New(Config{})
	if code, data := serve(s, "/v1/analyze", string(body)); code != http.StatusOK {
		b.Fatalf("analyze = %d: %s", code, data)
	}
	for _, memo := range []bool{true, false} {
		b.Run(map[bool]string{true: "memo", false: "decode"}[memo], func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if !memo {
					s.memo = cache.NewMemo[memoEntry](2)
				}
				if code, _ := serve(s, "/v1/analyze", string(body)); code != http.StatusOK {
					b.Fatalf("analyze = %d", code)
				}
			}
		})
	}
}
