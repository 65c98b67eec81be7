package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"commute/internal/apps/src"
	"commute/internal/server"
	"commute/internal/server/api"
)

// routeKeyForBody is the route key with no memo: what Router.routeKey
// must answer for every body.
func routeKeyForBody(body []byte) string {
	if key, ok := fingerprintBody(body); ok {
		return key
	}
	return bodyKey(body)
}

// longBody is an analyze body over 1 KB that differs from its twin's
// only after the first kilobyte.
func longBody(v int) []byte {
	source := "// " + strings.Repeat("x", 1500) + fmt.Sprintf("\nvoid main() {\n  print(%d);\n}\n", v)
	body, _ := json.Marshal(api.SourceRequest{Name: "long.mc", Source: source})
	return body
}

// routeKeyBodies are bodies of every kind the router sees: resolvable,
// the same program in other whitespace, field order or with trailing
// bytes, two programs with a common first kilobyte, and bodies that
// name no program.
var routeKeyBodies = []struct {
	body     string
	resolves bool
}{
	{`{"app":"graph"}`, true},
	{` { "app" : "graph" } `, true},
	{`{"app":"graph","mode":"serial","workers":2}`, true},
	{`{"name":"p.mc","source":"void main() {}"}`, true},
	{`{"source":"void main() {}","name":"p.mc"}`, true},
	{`{"app":"water","options":{"transform":true}}`, true},
	{string(longBody(1)), true},
	{string(longBody(2)), true},
	{`{"app":`, false},
	{`{"app":"nope"}`, false},
	{`{}`, false},
	{`not json`, false},
	{``, false},
}

// TestRouteKeyMemo: the memoized route key is routeKeyForBody's, on
// first sight and on a repeat, and only bodies that resolve to a program
// are remembered.
func TestRouteKeyMemo(t *testing.T) {
	rt := newRouter(t, Config{Shards: []string{"http://a", "http://b"}})
	resolved := 0
	for round := 0; round < 2; round++ {
		for _, tc := range routeKeyBodies {
			body := []byte(tc.body)
			before := rt.memo.Len()
			if got, want := rt.routeKey(body), routeKeyForBody(body); got != want {
				t.Fatalf("round %d %.60q: key %s, want %s", round, tc.body, got, want)
			}
			grew := rt.memo.Len() - before
			if want := map[bool]int{true: 1}[tc.resolves && round == 0]; grew != want {
				t.Fatalf("round %d %.60q: memo grew by %d, want %d", round, tc.body, grew, want)
			}
			if tc.resolves && round == 0 {
				resolved++
			}
		}
	}
	if n := rt.memo.Len(); n != resolved {
		t.Fatalf("memo holds %d bodies, want %d", n, resolved)
	}
	if rt.routeKey(longBody(1)) == rt.routeKey(longBody(2)) {
		t.Fatal("two programs with a common first kilobyte got one route key")
	}
}

// FuzzRouteKey: for any bytes, the memoized route key equals
// routeKeyForBody, the first time and on a repeat. The router outlives
// the inputs, so each input meets the memo the earlier ones left.
func FuzzRouteKey(f *testing.F) {
	for _, tc := range routeKeyBodies {
		f.Add([]byte(tc.body))
	}
	rt := newRouter(f, Config{Shards: []string{"http://a", "http://b"}})
	f.Fuzz(func(t *testing.T, body []byte) {
		want := routeKeyForBody(body)
		for i := 0; i < 2; i++ {
			if got := rt.routeKey(body); got != want {
				t.Fatalf("call %d: key %s, want %s", i+1, got, want)
			}
		}
	})
}

// hotBody is a cached analyze of inline source, the request a client
// repeats.
func hotBody(b *testing.B) []byte {
	name, source, _ := src.App("graph")
	body, err := json.Marshal(api.AnalyzeRequest{SourceRequest: api.SourceRequest{Name: name, Source: source}})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkRouteKey is the router's key for a repeated body: "memo" from
// the request memo, "decode" decoded and fingerprinted in full.
func BenchmarkRouteKey(b *testing.B) {
	body := hotBody(b)
	rt := newRouter(b, Config{Shards: []string{"http://a"}})
	rt.routeKey(body)
	b.Run("memo", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			rt.routeKey(body)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			routeKeyForBody(body)
		}
	})
}

// BenchmarkRouterHop splits a cached analyze through the router into its
// steps, against two in-process replicas on loopback listeners (batching
// off, so every request reaches the handler). "via-router" and
// "via-replica" are the whole request from a client, through the router
// and straight to the owning replica; their difference is the hop.
// "body", "key", "place", "forward" and "relay" are the router's own
// steps: reading the body, its route key, picking the key's shard, the
// round trip to the replica (replica handler included) and copying the
// reply to the client.
func BenchmarkRouterHop(b *testing.B) {
	body := hotBody(b)
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(server.New(server.Config{Workers: 2}).Handler())
		b.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt := newRouter(b, Config{Shards: urls})
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	b.Cleanup(client.CloseIdleConnections)
	owner := rt.RouteKey(rt.routeKey(body))

	post := func(b *testing.B, base string) []byte {
		resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("analyze = %d: %s", resp.StatusCode, data)
		}
		return data
	}
	reply := post(b, front.URL) // loads the program on its owner

	b.Run("via-router", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(b, front.URL)
		}
	})
	b.Run("via-replica", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(b, owner)
		}
	})
	b.Run("body", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			io.ReadAll(io.LimitReader(bytes.NewReader(body), api.MaxBodyBytes+1))
		}
	})
	b.Run("key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt.routeKey(body)
		}
	})
	b.Run("place", func(b *testing.B) {
		key := rt.routeKey(body)
		for i := 0; i < b.N; i++ {
			rt.pick(key, nil)
		}
	})
	b.Run("forward", func(b *testing.B) {
		r := httptest.NewRequest("POST", "/v1/analyze", nil)
		r.Header.Set("Content-Type", "application/json")
		for i := 0; i < b.N; i++ {
			resp, err := rt.send(r, owner, body)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	b.Run("relay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relay(httptest.NewRecorder(), &http.Response{
				StatusCode: http.StatusOK,
				Header:     http.Header{"Content-Type": {"application/json"}},
				Body:       io.NopCloser(bytes.NewReader(reply)),
			})
		}
	})
}
