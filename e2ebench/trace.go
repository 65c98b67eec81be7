package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program under test is instrumented).
// Spans of one operation share Op; Parent is the span that caused this
// one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerTotals aggregates spans by name: total and self time in ns.
type layerTotal struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	Total  int64  `json:"total_ns"`
	SelfNS int64  `json:"self_ns"`
}

func layerTotals(spans []span) []layerTotal {
	self := selfTimes(spans)
	by := map[string]*layerTotal{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.SelfNS += self[s.ID]
	}
	out := make([]layerTotal, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the trace — spans, per-layer totals, and the counters
// sampled at the same boundaries — as one JSON document.
func (t *tracer) write(path, workload string, seed int64, counters map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Layers   []layerTotal       `json:"layers"`
		Counters map[string]float64 `json:"counters"`
		Spans    []span             `json:"spans"`
	}{workload, seed, layerTotals(t.spans), counters, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
