package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commute/internal/server"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

// Config shapes a Router. Zero fields take the documented defaults.
type Config struct {
	// Shards are the replica base URLs (e.g. "http://10.0.0.2:8080").
	Shards []string
	// VNodes is the per-shard virtual node count (default 64).
	VNodes int
	// Retries bounds forwarding attempts beyond the first: transport
	// failures reroute to another shard, 429s wait out Retry-After and
	// retry (default 2).
	Retries int
	// MaxRetryWait caps how long one 429 Retry-After hint is honored
	// (default 2s) — a misbehaving shard must not park the router.
	MaxRetryWait time.Duration
	// DownTTL is how long a shard stays marked down after a transport
	// failure before the router probes it with live traffic again
	// (default 3s).
	DownTTL time.Duration
	// MaxBody caps a request body (default 4 MiB), matching the
	// replicas' own cap.
	MaxBody int64
	// Transport overrides the forwarding transport (in-process fleets,
	// tests). Nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// ForwardTimeout bounds one forwarding attempt (default 90s — run
	// requests can legitimately take their full server-side deadline).
	ForwardTimeout time.Duration
	// ProbeInterval enables the active health prober: a background
	// goroutine GETs /healthz on down-marked shards at this interval and
	// revives them on a 200, so recovery is detected without spending
	// live traffic on it. While the prober owns a shard's health, a
	// failed probe re-arms the down mark for another DownTTL. 0 disables
	// the prober (passive TTL expiry only). Stop it with Router.Close.
	ProbeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.MaxRetryWait == 0 {
		c.MaxRetryWait = 2 * time.Second
	}
	if c.DownTTL == 0 {
		c.DownTTL = 3 * time.Second
	}
	if c.MaxBody == 0 {
		c.MaxBody = 4 << 20
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.ForwardTimeout == 0 {
		c.ForwardTimeout = 90 * time.Second
	}
	return c
}

// shardState is one replica's routing state: counters for /statusz and
// the passive health mark. downUntil is unix nanos; 0 means live.
type shardState struct {
	url       string
	requests  atomic.Int64
	errors    atomic.Int64
	rerouted  atomic.Int64
	retries   atomic.Int64
	probes    atomic.Int64
	revivals  atomic.Int64
	downUntil atomic.Int64
}

func (ss *shardState) live(now time.Time) bool {
	return now.UnixNano() >= ss.downUntil.Load()
}

// Router fronts a fleet of commuted replicas, routing each request by
// its program fingerprint so one program's cache entry lives on one
// shard. Create with NewRouter; serve Handler().
type Router struct {
	cfg    Config
	ring   *Ring
	states map[string]*shardState
	mux    *http.ServeMux
	start  time.Time

	requests atomic.Int64
	rejected atomic.Int64 // no live shard reachable

	// Route keys of the distinct bodies that resolved (see routeKey).
	memo *cache.Memo[string]

	// Active health prober lifecycle (nil channels when disabled).
	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// NewRouter builds a router over cfg.Shards.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fleet router needs at least one shard")
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.Shards, cfg.VNodes),
		states: make(map[string]*shardState, len(cfg.Shards)),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		memo:   cache.NewMemo[string](cache.MemoEntries),
	}
	for _, s := range cfg.Shards {
		if _, dup := rt.states[s]; dup {
			return nil, fmt.Errorf("duplicate shard %q", s)
		}
		rt.states[s] = &shardState{url: s}
	}
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /statusz", rt.handleStatusz)
	rt.mux.HandleFunc("POST /v1/analyze", rt.handleProxy)
	rt.mux.HandleFunc("POST /v1/run", rt.handleProxy)
	rt.mux.HandleFunc("POST /v1/simulate", rt.handleProxy)
	if cfg.ProbeInterval > 0 {
		rt.probeStop = make(chan struct{})
		rt.probeDone = make(chan struct{})
		go rt.probeLoop()
	}
	return rt, nil
}

// Handler returns the router's HTTP handler tree.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the active health prober and waits for it to exit.
// Safe to call multiple times; a no-op when the prober is disabled.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		if rt.probeStop != nil {
			close(rt.probeStop)
			<-rt.probeDone
		}
	})
}

// probeLoop drives the active health prober: every ProbeInterval it
// probes each down-marked shard's /healthz out of band.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-tick.C:
			rt.probeDownShards()
		}
	}
}

// probeDownShards probes every currently-down shard once. A 200 from
// /healthz clears the down mark immediately (no waiting out the TTL);
// anything else re-arms it for another DownTTL, so live traffic never
// has to rediscover a still-dead shard between probes.
func (rt *Router) probeDownShards() {
	now := time.Now()
	for _, ss := range rt.states {
		if ss.live(now) {
			continue
		}
		ss.probes.Add(1)
		if rt.probeShard(ss.url) {
			ss.downUntil.Store(0)
			ss.revivals.Add(1)
		} else {
			ss.downUntil.Store(time.Now().Add(rt.cfg.DownTTL).UnixNano())
		}
	}
}

// probeShard issues one /healthz probe; true means the shard answered
// 200 (a draining replica's 503 keeps it down).
func (rt *Router) probeShard(shardURL string) bool {
	timeout := rt.cfg.ProbeInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
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

// RouteKey computes the shard a request body would be routed to —
// exported for the smoke harness and the load generator, which assert
// deterministic placement.
func (rt *Router) RouteKey(key string) string { return rt.ring.Lookup(key) }

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	for _, ss := range rt.states {
		if ss.live(now) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live shards"})
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	st := api.StatusZ{
		UptimeSec: time.Since(rt.start).Seconds(),
		Requests:  rt.requests.Load(),
		Rejected:  rt.rejected.Load(),
		Endpoints: map[string]api.EndpointStats{},
		Shards:    make(map[string]api.ShardStats, len(rt.states)),
	}
	for url, ss := range rt.states {
		st.Shards[url] = api.ShardStats{
			URL:       url,
			Requests:  ss.requests.Load(),
			Errors:    ss.errors.Load(),
			Rerouted:  ss.rerouted.Load(),
			Retries:   ss.retries.Load(),
			Probes:    ss.probes.Load(),
			Revivals:  ss.revivals.Load(),
			Down:      !ss.live(now),
			VNodes:    rt.ring.VNodes(),
			RingShare: rt.ring.Share(url),
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleProxy routes an API request by the fingerprint of the program
// it names. Bodies that don't resolve to a program (unknown app, no
// source) still route — deterministically, by raw body — so the owner
// shard produces the canonical error response.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBody+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if int64(len(body)) > rt.cfg.MaxBody {
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

// forward sends the request to key's owner with bounded retry:
// transport failures mark the shard down and reroute via rendezvous
// hashing over the survivors; 429s honor Retry-After (capped) against
// the same shard. Any HTTP response that isn't a retried 429 — success
// or application error — is relayed verbatim.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	rt.requests.Add(1)
	tried := make(map[string]bool, len(rt.states))
	ss := rt.pick(key, tried)
	for attempt := 0; ; attempt++ {
		if ss == nil {
			rt.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "no live shard for "+key)
			return
		}
		ss.requests.Add(1)
		resp, err := rt.send(r, ss.url, body)
		if err != nil {
			ss.errors.Add(1)
			if r.Context().Err() != nil {
				return // client gone; nothing to answer
			}
			// Passive markdown: stop routing to this shard for DownTTL,
			// then let live traffic probe it again.
			ss.downUntil.Store(time.Now().Add(rt.cfg.DownTTL).UnixNano())
			tried[ss.url] = true
			if attempt >= rt.cfg.Retries {
				rt.rejected.Add(1)
				writeErr(w, http.StatusBadGateway, "shard unreachable: "+err.Error())
				return
			}
			next := rt.pick(key, tried)
			if next != nil {
				ss.rerouted.Add(1)
			}
			ss = next
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < rt.cfg.Retries {
			wait := retryAfter(resp, rt.cfg.MaxRetryWait)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ss.retries.Add(1)
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

// pick returns the shard to try: the ring owner when it is live and
// untried, else the rendezvous winner among live untried shards, else
// nil. A shard marked down is only skipped while its TTL holds —
// after that it competes again (live-traffic probing).
func (rt *Router) pick(key string, tried map[string]bool) *shardState {
	now := time.Now()
	owner := rt.states[rt.ring.Lookup(key)]
	if owner != nil && owner.live(now) && !tried[owner.url] {
		return owner
	}
	var candidates []string
	for url, ss := range rt.states {
		if ss.live(now) && !tried[url] {
			candidates = append(candidates, url)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return rt.states[Rendezvous(key, candidates)]
}

// send issues one forwarding attempt.
func (rt *Router) send(r *http.Request, shardURL string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ForwardTimeout)
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
