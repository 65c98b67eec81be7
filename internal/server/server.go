// Package server is the commuted serving layer: a long-running HTTP
// daemon exposing the whole pipeline — commutativity analysis
// (/v1/analyze), hardened serial/parallel execution (/v1/run), and
// simulated-multiprocessor speedups (/v1/simulate) — over a
// content-addressed artifact cache (see package
// commute/internal/server/cache).
//
// The serving layer is production-shaped:
//
//   - Admission control: a bounded worker pool plus a bounded wait
//     queue; past both, requests shed with 429 + Retry-After instead
//     of growing memory without bound.
//   - Per-request deadlines threaded into RunSerialContext /
//     RunParallelOpts: a timed-out run returns 504 and is never re-run.
//   - Per-request output caps: a runaway program's print output is
//     truncated at a byte budget, never buffered unboundedly.
//   - Panic isolation per request: a panic becomes one 500, not a dead
//     daemon.
//   - Observability: /healthz for liveness and /statusz for the
//     counter set (requests, cache hits/misses/evictions, in-flight,
//     queue depth, load sheds, p50/p99 per endpoint).
//
// Graceful drain is the embedder's job: cmd/commuted calls SetDraining
// and then http.Server.Shutdown on SIGTERM, which stops new
// connections and waits for in-flight requests to finish.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/cond"
	"commute/internal/core"
	"commute/internal/rt"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

// Config shapes the serving layer. Zero fields take the documented
// defaults.
type Config struct {
	// Workers bounds concurrently executing requests (default:
	// GOMAXPROCS).
	Workers int
	// Queue bounds requests waiting for a worker slot beyond Workers;
	// past it the server sheds load with 429 (default 64). Negative:
	// no waiting, shed as soon as every worker is busy.
	Queue int
	// CacheBytes is the artifact cache budget (default 256 MiB).
	CacheBytes int64
	// MaxOutputBytes caps one request's program output (default 1 MiB).
	MaxOutputBytes int64
	// DefaultTimeout bounds an execution when the request doesn't ask
	// for a deadline (default 10s); MaxTimeout is the ceiling a request
	// can ask for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSourceBytes caps a request body (default 4 MiB).
	MaxSourceBytes int64
	// RetryAfter is the client backoff hint sent with 429s (default 1s).
	RetryAfter time.Duration
	// Blobs is the shared artifact tier (fleet deployments: a directory
	// shared by replicas, a peer-fetch store, or both tiered). After a
	// cold load the replica publishes the program's serialized analysis
	// to it; on a miss it adopts a peer's bundle instead of re-running
	// the analysis. Nil disables the tier.
	Blobs cache.BlobStore
	// BatchLinger coalesces same-fingerprint /v1/analyze requests: a
	// request arriving while an identical one is in flight — or within
	// this window after it completed — is answered with the same
	// serialized response bytes without re-entering the handler.
	// 0 means the 2ms default; negative disables batching.
	BatchLinger time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxOutputBytes == 0 {
		c.MaxOutputBytes = 1 << 20
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxSourceBytes == 0 {
		c.MaxSourceBytes = 4 << 20
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.BatchLinger == 0 {
		c.BatchLinger = 2 * time.Millisecond
	}
	return c
}

// Server is the commuted HTTP service. Create with New; serve
// Handler().
type Server struct {
	cfg   Config
	cache *cache.Cache
	mux   *http.ServeMux
	start time.Time

	slots    chan struct{} // worker tokens
	queued   atomic.Int64
	inflight atomic.Int64

	requests    atomic.Int64
	rejected    atomic.Int64
	panics      atomic.Int64
	specCommits atomic.Int64
	specAborts  atomic.Int64
	guardPar    atomic.Int64
	guardSer    atomic.Int64
	declined    atomic.Int64
	draining    atomic.Bool

	// Shared artifact tier (see artifact.go).
	blobs     cache.BlobStore
	adoptions atomic.Int64
	published atomic.Int64
	artMu     sync.Mutex
	artMap    map[string]*list.Element
	artLL     *list.List
	nameMu    sync.Mutex
	names     map[string]string
	// Cross-request response batching (see batch.go).
	batch     *batcher
	coalesced atomic.Int64

	lat map[string]*latencyRecorder
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: cache.New(cfg.CacheBytes, func(sys *commute.System) { sys.Release() }),
		mux:   http.NewServeMux(),
		start: time.Now(),
		slots: make(chan struct{}, cfg.Workers),
		lat: map[string]*latencyRecorder{
			"analyze":  {},
			"run":      {},
			"simulate": {},
			// Program-load latency, split by cache outcome: load-cold is
			// the full pipeline (parse → analysis → codegen → warm),
			// load-warm a cache hit, load-adopt a peer artifact decoded
			// from the blob tier instead of re-analyzed. The cold↔warm
			// gap is what the parallel analysis driver buys; the
			// cold↔adopt gap is what the fleet artifact tier buys.
			"load-cold":  {},
			"load-warm":  {},
			"load-adopt": {},
		},
	}
	s.initArtifacts(cfg.Blobs)
	s.batch = newBatcher(cfg.BatchLinger)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /v1/artifact/{key}", s.handleArtifact)
	s.mux.HandleFunc("POST /v1/analyze", s.guard("analyze", s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/run", s.guard("run", s.handleRun))
	s.mux.HandleFunc("POST /v1/simulate", s.guard("simulate", s.handleSimulate))
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the artifact cache (load harness, tests).
func (s *Server) Cache() *cache.Cache { return s.cache }

// SetDraining flips /healthz to 503 so load balancers stop routing new
// work while in-flight requests finish. Call before http.Server.Shutdown.
func (s *Server) SetDraining() { s.draining.Store(true) }

// ---------------------------------------------------------------------
// Admission control and request guarding

// admit acquires a worker slot, waiting in the bounded queue if every
// worker is busy. It reports false when the queue is full (shed with
// 429) or the client went away while queued.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.Queue) {
		s.queued.Add(-1)
		return nil, false
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	case <-ctx.Done():
		return nil, false
	}
}

// guard wraps an endpoint with admission control, panic isolation, and
// latency accounting.
func (s *Server) guard(name string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	rec := s.lat[name]
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		release, ok := s.admit(r.Context())
		if !ok {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			writeErr(w, http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		defer release()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		start := time.Now()
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.panics.Add(1)
					err = fmt.Errorf("panic: %v", p)
					writeErr(w, http.StatusInternalServerError, "internal error")
				}
			}()
			err = h(w, r)
		}()
		rec.record(time.Since(start), err != nil)
	}
}

// ---------------------------------------------------------------------
// Program loading through the artifact cache

// systemSize estimates the retained bytes of a loaded system (AST,
// types, analysis reports, codegen plan, slot resolution, compiled
// closures) for the cache's byte accounting. The structures are all
// roughly proportional to the source text, with a fixed floor for the
// per-program tables.
func systemSize(source string) int64 {
	return int64(len(source))*48 + 64<<10
}

// FingerprintRequest computes the routing/cache key for a request the
// same way every replica does. The fleet router calls it so a program
// always lands on the shard that owns its fingerprint.
func FingerprintRequest(req api.SourceRequest) (string, error) {
	name, source, opts, err := resolveSource(req)
	if err != nil {
		return "", err
	}
	return commute.Fingerprint(name, source, opts), nil
}

// resolveSource maps a request to its (name, source, load options)
// triple without loading anything. Fingerprinting the triple is what
// the batcher and the fleet router key on, so it must be cheap and
// deterministic.
func resolveSource(req api.SourceRequest) (name, source string, opts commute.LoadOptions, err error) {
	name, source = req.Name, req.Source
	if req.App != "" {
		var ok bool
		if name, source, ok = src.App(req.App); !ok {
			return "", "", opts, fmt.Errorf("unknown app %q (have %s)", req.App, src.AppNames())
		}
	}
	if source == "" {
		return "", "", opts, errors.New("request needs source or app")
	}
	if name == "" {
		name = "request.mc"
	}
	return name, source, commute.LoadOptions{Transform: req.Options.Transform}, nil
}

// loadSystemKeyed resolves a fingerprinted program through the cache.
// The returned handle must be Closed when the request is done with the
// system. A cold load publishes its artifact to the blob tier so fleet
// peers can adopt the analysis instead of repeating it.
func (s *Server) loadSystemKeyed(name, source string, opts commute.LoadOptions, key string) (h *cache.Handle, hit bool, err error) {
	start := time.Now()
	h, hit, err = s.cache.GetOrLoad(key, func() (*commute.System, int64, error) {
		sys, lerr := commute.LoadOpts(name, source, opts)
		if lerr != nil {
			return nil, 0, lerr
		}
		// Pay the lazy costs (slot resolution, closure compilation) now
		// so every request against this entry — including this one —
		// executes fully warm.
		sys.Warm()
		return sys, systemSize(source), nil
	})
	if rec := s.lat[loadWord(hit)]; rec != nil {
		rec.record(time.Since(start), err != nil)
	}
	if err == nil && !hit {
		s.rememberName(key, name)
		s.publishArtifact(key, name, h.System())
	}
	return h, hit, err
}

// loadSystem is the resolve→fingerprint→load composition used by the
// endpoints that need the live system (/v1/run, /v1/simulate).
func (s *Server) loadSystem(req api.SourceRequest) (h *cache.Handle, key string, hit bool, err error) {
	name, source, opts, rerr := resolveSource(req)
	if rerr != nil {
		return nil, "", false, rerr
	}
	key = commute.Fingerprint(name, source, opts)
	h, hit, err = s.loadSystemKeyed(name, source, opts, key)
	return h, key, hit, err
}

func loadWord(hit bool) string {
	if hit {
		return "load-warm"
	}
	return "load-cold"
}

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// ---------------------------------------------------------------------
// Endpoints

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Snapshot()
	st := api.StatusZ{
		UptimeSec:  time.Since(s.start).Seconds(),
		Requests:   s.requests.Load(),
		InFlight:   s.inflight.Load(),
		QueueDepth: s.queued.Load(),
		Rejected:   s.rejected.Load(),
		Panics:     s.panics.Load(),

		SpeculationCommits: s.specCommits.Load(),
		SpeculationAborts:  s.specAborts.Load(),
		GuardParallel:      s.guardPar.Load(),
		GuardSerial:        s.guardSer.Load(),
		RegionsDeclined:    s.declined.Load(),
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		CacheEvictions:     cs.Evictions,
		CacheEntries:       cs.Entries,
		CacheBytes:         cs.Bytes,
		CacheAdoptions:     s.adoptions.Load(),
		ArtifactsPublished: s.published.Load(),
		BatchCoalesced:     s.coalesced.Load(),
		Endpoints:          make(map[string]api.EndpointStats, len(s.lat)),
	}
	for name, rec := range s.lat {
		st.Endpoints[name] = rec.snapshot()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	var req api.AnalyzeRequest
	if err := s.readJSON(w, r, &req); err != nil {
		return err
	}
	name, source, opts, err := resolveSource(req.SourceRequest)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}
	key := commute.Fingerprint(name, source, opts)

	// Batch: concurrent (or just-completed, within the linger window)
	// requests for one (fingerprint, emit) pair share one serialized
	// response. The batch key includes every field that shapes the body.
	batchKey := key + "|emit=" + strconv.FormatBool(req.Emit)
	call, leader := s.batch.join(batchKey)
	if !leader {
		return s.awaitBatch(w, r, call)
	}

	// Leader: compute the response bytes, publish them to the batch —
	// unconditionally, or followers hang until their clients give up —
	// then write them as our own response.
	finished := false
	defer func() {
		if !finished {
			body, _ := json.Marshal(api.Error{Error: "internal error"})
			s.batch.finish(batchKey, call, http.StatusInternalServerError, body)
		}
	}()
	code, body, err := s.analyzeResult(req, name, source, opts, key, start)
	finished = true
	s.batch.finish(batchKey, call, code, body)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	return err
}

// awaitBatch serves a coalesced follower: block until the leader
// finishes (or the client goes away), then replay its bytes.
func (s *Server) awaitBatch(w http.ResponseWriter, r *http.Request, c *batchCall) error {
	select {
	case <-c.done:
	case <-r.Context().Done():
		return r.Context().Err()
	}
	s.coalesced.Add(1)
	if rec := s.lat["analyze"]; rec != nil {
		rec.coalesce()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(c.code)
	w.Write(c.body)
	if c.code >= 400 {
		return fmt.Errorf("coalesced onto failed leader (status %d)", c.code)
	}
	return nil
}

// analyzeResult computes the /v1/analyze response as (status, body),
// trying the three serving tiers in cost order: the warm in-memory
// system, an adopted fleet artifact, then the full analysis pipeline.
func (s *Server) analyzeResult(req api.AnalyzeRequest, name, source string, opts commute.LoadOptions, key string, start time.Time) (int, []byte, error) {
	if h, ok := s.cache.Peek(key); ok {
		loadStart := time.Now()
		resp := analyzeFromSystem(h.System(), key, "hit", req.Emit, start)
		h.Close()
		if rec := s.lat["load-warm"]; rec != nil {
			rec.record(time.Since(loadStart), false)
		}
		return jsonBody(http.StatusOK, resp)
	}
	if s.blobs != nil {
		loadStart := time.Now()
		if b, ok := s.adoptArtifact(key); ok {
			if rec := s.lat["load-adopt"]; rec != nil {
				rec.record(time.Since(loadStart), false)
			}
			return jsonBody(http.StatusOK, analyzeFromBundle(b, key, "adopt", req.Emit, start))
		}
	}
	h, hit, err := s.loadSystemKeyed(name, source, opts, key)
	if err != nil {
		return errBody(http.StatusUnprocessableEntity, err.Error())
	}
	defer h.Close()
	return jsonBody(http.StatusOK, analyzeFromSystem(h.System(), key, cacheWord(hit), req.Emit, start))
}

// analyzeFromSystem renders the analyze response from a live system.
func analyzeFromSystem(sys *commute.System, key, cacheWord string, emit bool, start time.Time) api.AnalyzeResponse {
	resp := api.AnalyzeResponse{
		Key:             key,
		Cache:           cacheWord,
		ParallelMethods: sys.ParallelMethods(),
		LoopsFound:      sys.Plan.LoopsFound,
		LoopsSuppressed: sys.Plan.LoopsSuppressed,
		LoopsRefused:    sys.Plan.LoopsRefused,
	}
	for _, mr := range sys.Reports() {
		resp.Methods = append(resp.Methods, apiMethodReport(mr))
	}
	if emit && sys.File != nil {
		resp.ParallelSource = sys.Plan.EmitParallelSource(sys.File)
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp
}

// apiMethodReport renders one analysis report in the wire schema,
// including the synthesized conditional-commutativity predicate in
// both rendered and structured form.
func apiMethodReport(mr *core.MethodReport) api.MethodReport {
	return api.MethodReport{
		Method:             mr.Method.FullName(),
		Parallel:           mr.Parallel,
		Reason:             mr.Reason,
		ExtentSize:         mr.ExtentSize,
		AuxiliaryCallSites: mr.AuxiliaryCallSites,
		IndependentPairs:   mr.IndependentPairs,
		SymbolicPairs:      mr.SymbolicPairs,

		Confidence:          mr.Confidence,
		Condition:           mr.Condition,
		ConditionTree:       api.CondTree(mr.Pred),
		Guard:               cond.Render(mr.Guard),
		GuardTree:           api.CondTree(mr.Guard),
		ConditionalEligible: mr.ConditionalEligible,
		SpeculationEligible: mr.SpeculationEligible,
	}
}

// jsonBody serializes a response value to (status, body) for batching.
func jsonBody(code int, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		eb, _ := json.Marshal(api.Error{Error: "encode response: " + err.Error()})
		return http.StatusInternalServerError, eb, err
	}
	return code, b, nil
}

// errBody is jsonBody for the error envelope; the returned error makes
// the guard count the request as failed.
func errBody(code int, msg string) (int, []byte, error) {
	b, _ := json.Marshal(api.Error{Error: msg})
	return code, b, errors.New(msg)
}

// maxRunWorkers is the largest worker count a /v1/run request may ask for.
const maxRunWorkers = 256

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	var req api.RunRequest
	if err := s.readJSON(w, r, &req); err != nil {
		return err
	}
	mode := req.Mode
	if mode == "" {
		mode = "parallel"
	}
	if mode != "serial" && mode != "parallel" {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (serial | parallel)", req.Mode))
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > maxRunWorkers {
		// Every worker is a goroutine with its own deque, started before
		// the run: admission control bounds requests, not their size.
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("workers %d out of range [1, %d]", workers, maxRunWorkers))
	}
	if mode == "serial" && req.MaxSteps > 0 {
		// The step budget lives in the parallel runtime; reject rather
		// than silently ignore the bound.
		return writeErr(w, http.StatusBadRequest, "max_steps requires mode=parallel")
	}
	spec, ok := rt.ParseSpecMode(req.Speculate)
	if !ok {
		return writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown speculate %q (off | auto | force)", req.Speculate))
	}
	if mode == "serial" && spec != rt.SpecOff {
		return writeErr(w, http.StatusBadRequest, "speculate requires mode=parallel")
	}
	if mode == "serial" && req.Conditional {
		return writeErr(w, http.StatusBadRequest, "conditional requires mode=parallel")
	}

	h, key, hit, err := s.loadSystem(req.SourceRequest)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}
	defer h.Close()
	sys := h.System()

	// Per-request deadline, clamped to the server ceiling and derived
	// from the connection context so a vanished client cancels the run.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	out := newCappedWriter(s.cfg.MaxOutputBytes)
	start := time.Now()
	var rs *rt.Stats
	var runErr error
	if mode == "serial" {
		_, runErr = sys.RunSerialContext(ctx, out)
	} else {
		_, rs, runErr = sys.RunParallelOpts(ctx, commute.RunOptions{
			Workers:     workers,
			MaxSteps:    req.MaxSteps,
			Speculate:   spec,
			Conditional: req.Conditional,
		}, out)
		if rs != nil {
			s.specCommits.Add(rs.SpeculationCommits)
			s.specAborts.Add(rs.SpeculationAborts)
			s.guardPar.Add(rs.GuardParallel)
			s.guardSer.Add(rs.GuardSerial)
			s.declined.Add(rs.RegionsDeclined)
		}
	}
	wall := time.Since(start)
	if runErr != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(runErr, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		return writeErr(w, code, runErr.Error())
	}
	return writeJSON(w, http.StatusOK, api.RunResponse{
		Key:             key,
		Cache:           cacheWord(hit),
		Output:          out.String(),
		OutputTruncated: out.Truncated(),
		Stats:           api.NewRunStats(mode, workers, wall, rs),
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	var req api.SimulateRequest
	if err := s.readJSON(w, r, &req); err != nil {
		return err
	}
	procs := req.Procs
	if len(procs) == 0 {
		procs = []int{1, 2, 4, 8, 16, 32}
	}
	if len(procs) > 64 {
		return writeErr(w, http.StatusBadRequest, "at most 64 processor counts per request")
	}
	for _, p := range procs {
		if p < 1 || p > 4096 {
			return writeErr(w, http.StatusBadRequest, fmt.Sprintf("processor count %d out of range [1, 4096]", p))
		}
	}

	h, key, hit, err := s.loadSystem(req.SourceRequest)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}
	defer h.Close()
	sys := h.System()

	tr, err := sys.Trace()
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}
	resp := api.SimulateResponse{Key: key, Cache: cacheWord(hit)}
	var base float64
	for _, p := range procs {
		res := commute.Simulate(tr, p)
		if base == 0 {
			base = res.TimeMicros
		}
		speedup := 0.0
		if res.TimeMicros > 0 {
			speedup = base / res.TimeMicros
		}
		resp.Results = append(resp.Results, api.SimPoint{
			Procs:         p,
			TimeMicros:    res.TimeMicros,
			Speedup:       speedup,
			BlockedMicros: res.Breakdown.Blocked,
		})
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------
// Helpers

// readJSON decodes the request body with the size cap applied. On
// failure it writes a 400 and returns the error.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, s.cfg.MaxSourceBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}

// writeErr writes the JSON error envelope and returns an error carrying
// the message, so guarded handlers can `return writeErr(...)` and have
// the request counted as failed.
func writeErr(w http.ResponseWriter, code int, msg string) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(api.Error{Error: msg})
	return errors.New(msg)
}

// cappedWriter buffers program output up to a byte budget and discards
// the rest, so a print-heavy runaway program cannot grow the daemon's
// heap: past the cap, writes cost nothing and the response marks the
// output truncated.
type cappedWriter struct {
	mu        sync.Mutex
	buf       []byte
	limit     int64
	truncated bool
}

func newCappedWriter(limit int64) *cappedWriter {
	return &cappedWriter{limit: limit}
}

// Write is safe for concurrent use: parallel-mode programs print from
// many worker goroutines.
func (cw *cappedWriter) Write(p []byte) (int, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	room := cw.limit - int64(len(cw.buf))
	if room <= 0 {
		cw.truncated = true
		return len(p), nil
	}
	if int64(len(p)) > room {
		cw.buf = append(cw.buf, p[:room]...)
		cw.truncated = true
		return len(p), nil
	}
	cw.buf = append(cw.buf, p...)
	return len(p), nil
}

func (cw *cappedWriter) String() string {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return string(cw.buf)
}

func (cw *cappedWriter) Truncated() bool {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.truncated
}
