// Package fleet is the multi-node serving layer: a fingerprint-routed
// router (commutefleet) in front of N commuted replicas. Programs are
// content-addressed — commute.Fingerprint — and the router places each
// key by rendezvous (highest-random-weight) hashing over the shards, so
// every request for one program lands on the same replica and the
// fleet's aggregate cache capacity is the sum of its replicas' caches,
// not N copies of the same hot set. The owner is the top scorer; while
// it is down its keys go to the runner-up among the live shards, and
// every other key stays where it is.
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commute/internal/server"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

const (
	// probeInterval is how often the prober GETs /healthz on each
	// down shard, and how long one probe may take.
	probeInterval = time.Second
	// forwardTimeout bounds one forwarding attempt: a run request can
	// legitimately take its full server-side deadline.
	forwardTimeout = 90 * time.Second
)

// Config shapes a Router. Zero fields take the documented defaults.
type Config struct {
	// Shards are the replica base URLs (e.g. "http://10.0.0.2:8080").
	Shards []string
	// Retries bounds forwarding attempts beyond the first: transport
	// failures reroute to another shard, 429s wait out Retry-After and
	// retry (default 2; negative: none).
	Retries int
	// MaxRetryWait caps how long one 429 Retry-After hint is honored
	// (default 2s) — a misbehaving shard must not park the router.
	MaxRetryWait time.Duration
	// Transport overrides the forwarding transport (in-process fleets,
	// tests). Nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.MaxRetryWait == 0 {
		c.MaxRetryWait = 2 * time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	return c
}

// shard is one replica: its rendezvous seed, its counters for /statusz
// and its health flag. A transport failure sets down; only a successful
// /healthz probe clears it.
type shard struct {
	url      string
	seed     uint64 // hash64(url), mixed with a key's hash to score it
	requests atomic.Int64
	errors   atomic.Int64
	rerouted atomic.Int64
	retries  atomic.Int64
	probes   atomic.Int64
	revivals atomic.Int64
	down     atomic.Bool
}

// Router fronts a fleet of commuted replicas, routing each request by
// its program fingerprint so one program's cache entry lives on one
// shard. Create with NewRouter; serve Handler(); stop with Close.
type Router struct {
	cfg    Config
	shards []*shard // in Config order
	mux    *http.ServeMux
	start  time.Time

	requests atomic.Int64
	rejected atomic.Int64 // no live shard reachable

	// Route keys of the distinct bodies that resolved (see routeKey).
	memo *cache.Memo[string]

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// NewRouter builds a router over cfg.Shards and starts its prober.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet router needs at least one shard")
	}
	rt := &Router{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		memo:      cache.NewMemo[string](cache.MemoEntries),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	for _, url := range cfg.Shards {
		if slices.ContainsFunc(rt.shards, func(s *shard) bool { return s.url == url }) {
			return nil, fmt.Errorf("duplicate shard %q", url)
		}
		rt.shards = append(rt.shards, &shard{url: url, seed: hash64(url)})
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /statusz", rt.handleStatusz)
	rt.mux.HandleFunc("POST /v1/analyze", rt.handleProxy)
	rt.mux.HandleFunc("POST /v1/run", rt.handleProxy)
	rt.mux.HandleFunc("POST /v1/simulate", rt.handleProxy)
	go rt.probeLoop()
	return rt, nil
}

// Handler returns the router's HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the prober and waits for it to exit. Safe to call more
// than once.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.probeStop)
		<-rt.probeDone
	})
}

// probeLoop probes every down shard's /healthz once per probeInterval,
// out of band: a 200 revives the shard, anything else leaves it down,
// so live traffic never spends a request on a dead shard.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-tick.C:
			for _, s := range rt.shards {
				if s.down.Load() {
					s.probes.Add(1)
					if rt.probe(s.url) {
						s.down.Store(false)
						s.revivals.Add(1)
					}
				}
			}
		}
	}
}

// probe issues one /healthz probe; true means the shard answered 200
// (a draining replica's 503 keeps it down).
func (rt *Router) probe(shardURL string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shardURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Transport.RoundTrip(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// hash64 is 64-bit FNV-1a: one pass over the key, the same value in
// every process.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is SplitMix64's finalizer, a bijection: distinct shard seeds give
// one key distinct scores.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// winner returns the top-scoring shard for key among those ok admits,
// or nil when it admits none. The key is hashed once; each shard's
// score is that hash mixed with the shard's seed.
func (rt *Router) winner(key string, ok func(*shard) bool) *shard {
	h := hash64(key)
	var best *shard
	var bestScore uint64
	for _, s := range rt.shards {
		if score := mix(h ^ s.seed); (best == nil || score > bestScore) && ok(s) {
			best, bestScore = s, score
		}
	}
	return best
}

// RouteKey returns the shard that owns key with every shard live —
// exported for the smoke harness and the load generator, which assert
// deterministic placement.
func (rt *Router) RouteKey(key string) string {
	return rt.winner(key, func(*shard) bool { return true }).url
}

// pick returns the shard to try for key: the winner among the live
// shards not in tried, or nil.
func (rt *Router) pick(key string, tried []*shard) *shard {
	return rt.winner(key, func(s *shard) bool { return !s.down.Load() && !slices.Contains(tried, s) })
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if slices.ContainsFunc(rt.shards, func(s *shard) bool { return !s.down.Load() }) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live shards"})
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	st := api.StatusZ{
		UptimeSec: time.Since(rt.start).Seconds(),
		Requests:  rt.requests.Load(),
		Rejected:  rt.rejected.Load(),
		Endpoints: map[string]api.EndpointStats{},
		Shards:    make(map[string]api.ShardStats, len(rt.shards)),
	}
	for _, s := range rt.shards {
		st.Shards[s.url] = api.ShardStats{
			URL:      s.url,
			Requests: s.requests.Load(),
			Errors:   s.errors.Load(),
			Rerouted: s.rerouted.Load(),
			Retries:  s.retries.Load(),
			Probes:   s.probes.Load(),
			Revivals: s.revivals.Load(),
			Down:     s.down.Load(),
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleProxy routes an API request by the fingerprint of the program
// it names. Bodies that don't resolve to a program (unknown app, no
// source) still route — deterministically, by raw body — so the owner
// shard produces the canonical error response.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBodyBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if len(body) > api.MaxBodyBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body over router cap")
		return
	}
	rt.forward(w, r, rt.routeKey(body), body)
}

// routeKey extracts the routing key from a request body: the program
// fingerprint when the body resolves, a hash of the raw bytes otherwise.
// A body that resolves is remembered by the SHA-256 of its bytes, so a
// byte-identical repeat costs one hash instead of one JSON decode; one
// that does not is decoded again every time.
func (rt *Router) routeKey(body []byte) string {
	sum := sha256.Sum256(body)
	if key, ok := rt.memo.Get(sum); ok {
		return key
	}
	key, ok := fingerprintBody(body)
	if !ok {
		return bodyKey(body)
	}
	rt.memo.Put(sum, key)
	return key
}

// fingerprintBody is the fingerprint of the program a body names.
func fingerprintBody(body []byte) (string, bool) {
	var src api.SourceRequest
	// Tolerant decode: run/analyze/simulate bodies all embed
	// SourceRequest; their other fields are ignored here (the replica
	// re-validates everything).
	if err := json.Unmarshal(body, &src); err != nil {
		return "", false
	}
	key, err := server.FingerprintRequest(src)
	return key, err == nil
}

// bodyKey routes a body that names no program by its raw bytes.
func bodyKey(body []byte) string { return fmt.Sprintf("body:%x", hash64(string(body))) }

// forward sends the request to key's owner with bounded retry: a
// transport failure marks the shard down and reroutes to the next
// rendezvous winner; a 429 honors Retry-After (capped) against the same
// shard. Any HTTP response that isn't a retried 429 — success or
// application error — is relayed verbatim.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	rt.requests.Add(1)
	var tried []*shard
	s := rt.pick(key, nil)
	for attempt := 0; ; attempt++ {
		if s == nil {
			rt.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "no live shard for "+key)
			return
		}
		s.requests.Add(1)
		resp, err := rt.send(r, s.url, body)
		if err != nil {
			s.errors.Add(1)
			if r.Context().Err() != nil {
				return // client gone; nothing to answer
			}
			s.down.Store(true)
			tried = append(tried, s)
			if attempt >= rt.cfg.Retries {
				rt.rejected.Add(1)
				writeErr(w, http.StatusBadGateway, "shard unreachable: "+err.Error())
				return
			}
			next := rt.pick(key, tried)
			if next != nil {
				s.rerouted.Add(1)
			}
			s = next
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < rt.cfg.Retries {
			wait := retryAfter(resp, rt.cfg.MaxRetryWait)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			s.retries.Add(1)
			select {
			case <-time.After(wait):
			case <-r.Context().Done():
				return
			}
			continue
		}
		relay(w, resp)
		return
	}
}

// send issues one forwarding attempt.
func (rt *Router) send(r *http.Request, shardURL string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(r.Context(), forwardTimeout)
	req, err := http.NewRequestWithContext(ctx, r.Method, shardURL+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.cfg.Transport.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// Tie the context's lifetime to the response body.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (cb *cancelBody) Close() error {
	err := cb.ReadCloser.Close()
	cb.cancel()
	return err
}

// relay copies a shard response to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, hdr := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(hdr); v != "" {
			w.Header().Set(hdr, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// retryAfter parses a 429's Retry-After seconds hint, capped.
func retryAfter(resp *http.Response, cap time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			d := time.Duration(secs) * time.Second
			if d > cap {
				return cap
			}
			return d
		}
	}
	// No parseable hint: brief fixed backoff.
	if cap < 50*time.Millisecond {
		return cap
	}
	return 50 * time.Millisecond
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, api.Error{Error: msg})
}
