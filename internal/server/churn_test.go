package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"commute/internal/server/api"
)

// churnSource is a small program; %d makes each one distinct. It prints
// 120 times that number.
const churnSource = `
class acc {
public:
  int n;
  void add(int k);
};
void acc::add(int k) { n = n + k; }
acc A;
void main() {
  int i;
  for (i = 0; i < 16; i += 1) {
    A.add(i * %d);
  }
  print(A.n);
}
`

// TestChurnHeapBound: a replica that loads, runs and evicts 1 000
// distinct programs holds no more than its cache does. Every program
// runs once, serially or in parallel, so each builds its code; every
// fourth run goes back to a program 32 loads old, which the cache of
// a few entries has evicted, so it loads and builds again. After a GC
// the heap the churn left must stay under heapBound: what an evicted
// System held, code included, is garbage once nothing uses it.
func TestChurnHeapBound(t *testing.T) {
	const (
		programs  = 1000
		heapBound = 2 << 20
	)
	s := New(Config{CacheBytes: 1 << 20})
	run := func(n int, mode string) {
		t.Helper()
		body, err := json.Marshal(api.RunRequest{
			SourceRequest: api.SourceRequest{Name: "churn.mc", Source: fmt.Sprintf(churnSource, n)},
			Mode:          mode,
			Workers:       2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		var rr api.RunResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatalf("program %d: %d %s", n, rec.Code, rec.Body)
		}
		if want := fmt.Sprintf("%d\n", 120*n); rec.Code != http.StatusOK || rr.Output != want {
			t.Fatalf("program %d, %s: %d, output %q; want 200, %q", n, mode, rec.Code, rr.Output, want)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n := range programs {
		run(n, [2]string{"serial", "parallel"}[n%2])
		if n >= 32 && n%4 == 3 {
			run(n-32, "serial")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := s.Cache().Snapshot()
	if st.Misses <= programs || st.Evictions != st.Misses-st.Entries {
		t.Fatalf("%d loads, %d evictions, %d resident: want every program loaded, the old ones again, and all but the resident evicted",
			st.Misses, st.Evictions, st.Entries)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap after the churn: %.2f MB more than before (bound %.0f MB), %d entries resident, %d evictions",
		float64(grown)/(1<<20), float64(heapBound)/(1<<20), st.Entries, st.Evictions)
	if raceEnabled {
		return
	}
	if grown > heapBound {
		t.Errorf("the churn left the heap %.2f MB larger, over its bound of %.0f MB", float64(grown)/(1<<20), float64(heapBound)/(1<<20))
	}
}
