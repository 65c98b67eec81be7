package server

import (
	"sort"
	"sync"
	"time"

	"commute/internal/server/api"
)

// latencyRecorder tracks one endpoint's request count, error count,
// and a sliding window of recent latencies for p50/p99 estimation. The
// window is a fixed ring — a daemon serving heavy traffic must not
// accumulate unbounded samples — so the percentiles describe the last
// ringSize requests, which is what an operator watching /statusz wants.
type latencyRecorder struct {
	mu       sync.Mutex
	requests int64
	errors   int64
	ring     [ringSize]float64 // milliseconds
	n        int               // filled slots
	idx      int               // next write position
}

const ringSize = 512

func (l *latencyRecorder) record(d time.Duration, isErr bool) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	l.requests++
	if isErr {
		l.errors++
	}
	l.ring[l.idx] = ms
	l.idx = (l.idx + 1) % ringSize
	if l.n < ringSize {
		l.n++
	}
	l.mu.Unlock()
}

// snapshot computes the endpoint summary; percentiles are nearest-rank
// over the window.
func (l *latencyRecorder) snapshot() api.EndpointStats {
	l.mu.Lock()
	out := api.EndpointStats{Requests: l.requests, Errors: l.errors}
	samples := append([]float64(nil), l.ring[:l.n]...)
	l.mu.Unlock()
	if len(samples) > 0 {
		sort.Float64s(samples)
		out.P50MS = quantile(samples, 0.50)
		out.P99MS = quantile(samples, 0.99)
	}
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
