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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"commute"
	"commute/internal/apps/src"
	"commute/internal/rt"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

// Config shapes the serving layer. Zero fields take the documented
// defaults. A request body is capped at api.MaxBodyBytes (413 past it),
// and a 429 asks the client to retry after one second.
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
	// DefaultTimeout bounds an execution — a /v1/run, or the trace run
	// of a /v1/simulate — when the request doesn't ask for a deadline
	// (default 10s); MaxTimeout is the ceiling a request can ask for
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Blobs is the shared artifact tier (fleet deployments: a directory
	// shared by replicas). After a cold load the replica publishes the
	// program's serialized analysis to it; on a miss it adopts a peer's
	// bundle instead of re-running the analysis. Nil disables the tier.
	Blobs cache.BlobStore
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

	// Shared artifact tier counters (see artifact.go).
	adoptions atomic.Int64
	published atomic.Int64
	// What each distinct request body decoded to (see request.go).
	memo *cache.Memo[memoEntry]

	lat map[string]*latencyRecorder
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: cache.New(cfg.CacheBytes),
		mux:   http.NewServeMux(),
		start: time.Now(),
		slots: make(chan struct{}, cfg.Workers),
		lat: map[string]*latencyRecorder{
			"analyze":  {},
			"run":      {},
			"simulate": {},
			// Program-load latency, split by cache outcome: load-cold is
			// the full pipeline (parse → analysis → codegen), load-warm
			// a cache lookup that found the program, load-adopt a tier
			// read and decode of a peer's artifact instead of a
			// re-analysis. The cold↔warm gap is what the cache buys;
			// the cold↔adopt gap is what the fleet artifact tier buys.
			"load-cold":  {},
			"load-warm":  {},
			"load-adopt": {},
		},
	}
	s.memo = cache.NewMemo[memoEntry](cache.MemoEntries)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
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
			w.Header().Set("Retry-After", "1") // seconds
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
// types, analysis reports, codegen plan, interpreter code) for the
// cache's byte accounting. The structures are all roughly proportional
// to the source text, with a fixed floor for the per-program tables.
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
// the cache and the fleet router key on, so it must be cheap and
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

// loadProgram resolves a fingerprinted program through the cache and
// times the lookup: load-warm when it found the program, or waited for
// a concurrent load of it, and load-cold when it ran the pipeline. Only
// a cold load asks for the program's text.
//
// Loading does not prepare the program for execution: the System's
// interpreter code is built by the first request that runs the entry
// (System.Warm), so an entry only ever analyzed holds none.
func (s *Server) loadProgram(p program) (sys *commute.System, hit bool, err error) {
	start := time.Now()
	sys, hit, err = s.cache.GetOrLoad(p.key, func() (*commute.System, int64, error) {
		name, source, opts, err := p.text()
		if err != nil {
			return nil, 0, err
		}
		sys, err := commute.LoadOpts(name, source, opts)
		return sys, systemSize(source), err
	})
	s.lat[loadWord(hit)].record(time.Since(start), err != nil)
	return sys, hit, err
}

// loadToRun loads a program a request executes. A cold load publishes
// the program's bundle, as an analyze miss does, and the first request
// that runs the entry builds its code here, before the execution's
// clock starts, so a reported wall time never includes it.
func (s *Server) loadToRun(p program) (*commute.System, bool, error) {
	sys, hit, err := s.loadProgram(p)
	if err != nil {
		return nil, false, err
	}
	if !hit && s.cfg.Blobs != nil {
		s.bundle(p.key, sys, true, false)
	}
	sys.Warm()
	return sys, hit, nil
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
		Endpoints:          make(map[string]api.EndpointStats, len(s.lat)),
	}
	for name, rec := range s.lat {
		st.Endpoints[name] = rec.snapshot()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	req, p, err := readRequest(s, w, r, analyzeSource)
	if err != nil {
		return err
	}
	if err := p.accept(w); err != nil {
		return err
	}

	b, word, err := s.analysis(p, req.Emit)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}
	return writeJSON(w, http.StatusOK, analyzeFromBundle(b, word, req.Emit, start))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) error {
	req, p, err := readRequest(s, w, r, runSource)
	if err != nil {
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
	if workers == 0 {
		workers = 4
	}
	if err := api.CheckWorkers(workers); err != nil {
		return writeErr(w, http.StatusBadRequest, err.Error())
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

	if err := p.accept(w); err != nil {
		return err
	}
	sys, hit, err := s.loadToRun(p)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}

	ctx, cancel := s.deadline(r, req.TimeoutMS)
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
		return writeErr(w, execErrCode(runErr), runErr.Error())
	}
	return writeJSON(w, http.StatusOK, api.RunResponse{
		Key:             p.key,
		Cache:           cacheWord(hit),
		Output:          out.String(),
		OutputTruncated: out.Truncated(),
		Stats:           api.NewRunStats(mode, workers, wall, rs),
	})
}

// deadline is an execution's context: timeoutMS (0: DefaultTimeout),
// clamped to MaxTimeout, derived from the connection context so a
// vanished client cancels the execution.
func (s *Server) deadline(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), min(timeout, s.cfg.MaxTimeout))
}

// execErrCode is the status of a failed execution: 504 past its
// deadline, else 422.
func execErrCode(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	req, prog, err := readRequest(s, w, r, simulateSource)
	if err != nil {
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

	if err := prog.accept(w); err != nil {
		return err
	}
	sys, hit, err := s.loadToRun(prog)
	if err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, err.Error())
	}

	ctx, cancel := s.deadline(r, 0)
	defer cancel()
	tr, err := sys.Trace(ctx)
	if err != nil {
		return writeErr(w, execErrCode(err), err.Error())
	}
	resp := api.SimulateResponse{Key: prog.key, Cache: cacheWord(hit)}
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
