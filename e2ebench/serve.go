package main

// The serve section: an in-process fleet router in front of two commuted
// replicas sharing one blob tier, all on loopback listeners, driven by
// a closed loop of two clients (the callers are CLIs and CI jobs that
// wait for each reply before sending the next request).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"commute"
	"commute/internal/fleet"
	"commute/internal/server"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

const (
	serveReplicas = 2
	// serveCacheBytes is each replica's artifact cache budget (the
	// server's default is 256 MiB). By the server's own accounting an
	// entry is 0.15-0.3 MB, so the 16-program hot set fits even when
	// routing puts all of it on one replica, with room for ~70 more
	// entries: enough that a hot program is never the least recently
	// used, far too little for the stream of never-repeated miss
	// programs, which keeps evicting.
	serveCacheBytes = 16 << 20
	hotSetSize      = 16
	// staleEvery makes every n-th miss request re-ask for the program
	// requested staleBack misses earlier: by then it is evicted from
	// its replica's cache (each replica sees about half the misses) but
	// its published artifact is in the blob tier, so the reply is
	// adopted, not recomputed.
	staleEvery = 8
	staleBack  = 256
)

// Request classes.
const (
	classHit  = "analyze_hit"
	classMiss = "analyze_miss"
	classRun  = "run"
)

// call is one prepared request and what a correct reply must contain.
type call struct {
	class string
	path  string
	body  []byte
	key   string // expected fingerprint
	// analyze: the expected parallel_methods (hot set) or, for the
	// never-repeated miss programs, the expected method and
	// parallel-method counts of the program's shape.
	parallel  []string
	nMethods  int
	nParallel int
	cacheOK   []string // acceptable "cache" words
	output    string   // run: expected print output (walker reference)
}

// fleetEnv is the serving stack under test.
type fleetEnv struct {
	replicas []*server.Server
	servers  []*httptest.Server
	router   *fleet.Router
	front    *httptest.Server
	client   *http.Client
}

func startFleet() (*fleetEnv, error) {
	f := &fleetEnv{}
	blobs := cache.NewMemStore()
	var urls []string
	for i := 0; i < serveReplicas; i++ {
		r := server.New(server.Config{Workers: workers, CacheBytes: serveCacheBytes, Blobs: blobs})
		s := httptest.NewServer(r.Handler())
		f.replicas = append(f.replicas, r)
		f.servers = append(f.servers, s)
		urls = append(urls, s.URL)
	}
	router, err := fleet.NewRouter(fleet.Config{Shards: urls})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = router
	f.front = httptest.NewServer(router.Handler())
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	return f, nil
}

func (f *fleetEnv) stop() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// statusz fetches one /statusz snapshot.
func (f *fleetEnv) statusz(base string) (api.StatusZ, error) {
	var st api.StatusZ
	resp, err := f.client.Get(base + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// fleetCounters sums the replicas' counters and reads the router's
// per-shard ones.
type fleetCounters struct {
	hits, misses, evictions, adoptions, coalesced, rejected float64
	rerouted, retries                                       float64
}

func (f *fleetEnv) counters() (fleetCounters, error) {
	var replicas []api.StatusZ
	for _, s := range f.servers {
		st, err := f.statusz(s.URL)
		if err != nil {
			return fleetCounters{}, err
		}
		replicas = append(replicas, st)
	}
	router, err := f.statusz(f.front.URL)
	return countersFrom(replicas, router), err
}

func countersFrom(replicas []api.StatusZ, router api.StatusZ) fleetCounters {
	var c fleetCounters
	for _, st := range replicas {
		c.hits += float64(st.CacheHits)
		c.misses += float64(st.CacheMisses)
		c.evictions += float64(st.CacheEvictions)
		c.adoptions += float64(st.CacheAdoptions)
		c.coalesced += float64(st.BatchCoalesced)
		c.rejected += float64(st.Rejected)
	}
	for _, sh := range router.Shards {
		c.rerouted += float64(sh.Rerouted)
		c.retries += float64(sh.Retries)
	}
	return c
}

// delta is after − before, field by field.
func (a fleetCounters) delta(b fleetCounters) fleetCounters {
	return fleetCounters{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
		a.adoptions - b.adoptions, a.coalesced - b.coalesced, a.rejected - b.rejected,
		a.rerouted - b.rerouted, a.retries - b.retries}
}

func analyzeCall(p program, class string) call {
	body, err := json.Marshal(api.AnalyzeRequest{SourceRequest: api.SourceRequest{
		Name: p.name, Source: p.source, Options: api.Options{Transform: p.load.Transform}}})
	if err != nil {
		panic(err) // a struct of strings and bools always marshals
	}
	return call{class: class, path: "/v1/analyze", body: body,
		key: commute.Fingerprint(p.name, p.source, commute.LoadOptions{Transform: p.load.Transform})}
}

// serveMix is the prepared traffic: hot analyzes, never-repeated
// analyzes, and runs of one small hot program, in a seeded order with
// an exact 70/20/10 split.
type serveMix struct {
	hot   []call
	calls []call
}

// missShapes are the shapes the never-repeated programs cycle through:
// the 2-class programs of the corpus grid, every variant.
func missShapes() []shape { return corpusShapes()[:7] }

func newServeMix(seed int64, requests int, corpus []program, runProg *loadedProg) (serveMix, error) {
	r := rand.New(rand.NewSource(seed ^ 0x5e7e))
	var mix serveMix

	// Hot set: a seeded draw of synthetic corpus programs of at most 6
	// classes (the cache must hold all of them on one replica).
	var candidates []program
	for i, sh := range corpusShapes() {
		if sh.classes <= 6 {
			candidates = append(candidates, corpus[len(corpus)-len(corpusShapes())+i])
		}
	}
	r.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	for _, p := range candidates[:hotSetSize] {
		sys, err := commute.LoadOpts(p.name, p.source, p.load)
		if err != nil {
			return mix, err
		}
		c := analyzeCall(p, classHit)
		c.parallel = sys.ParallelMethods()
		c.cacheOK = []string{"hit"}
		mix.hot = append(mix.hot, c)
	}

	// Expected report sizes per miss shape, from one instance each: the
	// seed moves kinds between classes and changes coefficients, never
	// how many methods there are or how many of them parallelize.
	type counts struct{ methods, parallel int }
	shapes := missShapes()
	want := make([]counts, len(shapes))
	for i, sh := range shapes {
		p := synthProgram(rand.New(rand.NewSource(seed+int64(i))), i, sh, 2)
		sys, err := commute.LoadOpts(p.name, p.source, p.load)
		if err != nil {
			return mix, err
		}
		want[i] = counts{len(sys.Reports()), len(sys.ParallelMethods())}
	}

	runBody, err := json.Marshal(api.RunRequest{
		SourceRequest: api.SourceRequest{Name: runProg.p.name, Source: runProg.p.source,
			Options: api.Options{Transform: runProg.p.load.Transform}},
		Mode: "parallel", Workers: workers, Conditional: runProg.p.conditional,
		Speculate: runProg.p.speculate.String(),
	})
	if err != nil {
		return mix, err
	}
	runCall := call{class: classRun, path: "/v1/run", body: runBody, output: runProg.ref.out,
		key:     commute.Fingerprint(runProg.p.name, runProg.p.source, commute.LoadOptions{Transform: runProg.p.load.Transform}),
		cacheOK: []string{"hit"}}

	classes := make([]string, 0, requests)
	for i := 0; i < requests; i++ {
		switch {
		case i%10 < 7:
			classes = append(classes, classHit)
		case i%10 < 9:
			classes = append(classes, classMiss)
		default:
			classes = append(classes, classRun)
		}
	}
	r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	var misses []call
	for _, class := range classes {
		switch class {
		case classHit:
			mix.calls = append(mix.calls, mix.hot[r.Intn(len(mix.hot))])
		case classRun:
			mix.calls = append(mix.calls, runCall)
		case classMiss:
			n := len(misses)
			if n%staleEvery == staleEvery-1 && n >= staleBack {
				c := misses[n-staleBack]
				c.cacheOK = []string{"adopt", "hit", "miss"}
				misses = append(misses, c)
			} else {
				i := n % len(shapes)
				p := synthProgram(r, i, shapes[i], 2)
				p.name = fmt.Sprintf("miss-%06d.mc", n)
				c := analyzeCall(p, classMiss)
				c.nMethods, c.nParallel = want[i].methods, want[i].parallel
				c.cacheOK = []string{"miss"}
				misses = append(misses, c)
			}
			mix.calls = append(mix.calls, misses[n])
		}
	}
	return mix, nil
}

// reply is the part of a response the harness checks.
type reply struct {
	Key             string            `json:"key"`
	Cache           string            `json:"cache"`
	ParallelMethods []string          `json:"parallel_methods"`
	Methods         []json.RawMessage `json:"methods"`
	Output          string            `json:"output"`
}

// do sends one call to base and checks the reply. The returned latency
// covers the request up to the last body byte, not the check.
func (f *fleetEnv) do(base string, c call) (time.Duration, int, error) {
	t0 := time.Now()
	resp, err := f.client.Post(base+c.path, "application/json", bytes.NewReader(c.body))
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	return d, len(body), checkReply(c, resp.StatusCode, body)
}

func checkReply(c call, status int, body []byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if r.Key != c.key {
		return fmt.Errorf("key %s, want %s", r.Key, c.key)
	}
	if !slices.Contains(c.cacheOK, r.Cache) {
		return fmt.Errorf("cache %q, want one of %v", r.Cache, c.cacheOK)
	}
	switch {
	case c.class == classRun:
		if r.Output != c.output {
			return fmt.Errorf("output %q, want %q", r.Output, c.output)
		}
	case c.parallel != nil:
		if !slices.Equal(r.ParallelMethods, c.parallel) {
			return fmt.Errorf("parallel_methods %v, want %v", r.ParallelMethods, c.parallel)
		}
	default:
		if len(r.Methods) != c.nMethods || len(r.ParallelMethods) != c.nParallel {
			return fmt.Errorf("%d methods / %d parallel, want %d / %d",
				len(r.Methods), len(r.ParallelMethods), c.nMethods, c.nParallel)
		}
	}
	return nil
}

type serveResult struct {
	perClass map[string][]float64 // ms
	all      []float64
	rps      float64
	counters fleetCounters
	// traced runs only
	routeUS, directUS, respBytes float64
}

// warm sends every hot analyze and the run once, untimed, so the timed
// mix finds the hot set cached.
func (f *fleetEnv) warm(mix serveMix, tl *tally) {
	for _, c := range mix.hot {
		c.cacheOK = []string{"miss", "hit", "adopt"}
		_, _, err := f.do(f.front.URL, c)
		tl.op("serve warm-up", err)
	}
	for _, c := range mix.calls {
		if c.class == classRun {
			c.cacheOK = []string{"miss", "hit"}
			_, _, err := f.do(f.front.URL, c)
			tl.op("serve warm-up", err)
			break
		}
	}
}

// serveSection is the serve section's state between steps.
type serveSection struct {
	f      *fleetEnv
	mix    serveMix
	next   int
	busy   time.Duration // wall time spent inside steps
	before fleetCounters
	res    serveResult
	tl     *tally
	tr     *tracer
}

func newServeSection(f *fleetEnv, mix serveMix, tl *tally, tr *tracer) (*serveSection, error) {
	s := &serveSection{f: f, mix: mix, tl: tl, tr: tr}
	s.res.perClass = map[string][]float64{}
	f.warm(mix, tl)
	var err error
	s.before, err = f.counters()
	return s, err
}

// step replays the next n calls of the mix through the router from
// `workers` closed-loop clients and waits for all of them.
func (s *serveSection) step(n int) {
	end := min(s.next+n, len(s.mix.calls))
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	next.Store(int64(s.next))
	t0 := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= end {
					return
				}
				c := s.mix.calls[i]
				sp := s.tr.begin("serve."+c.class, -1, i)
				d, _, err := s.f.do(s.f.front.URL, c)
				s.tr.end(sp)
				if !s.tl.op("serve "+c.class, err) {
					continue
				}
				v := float64(d.Nanoseconds()) / 1e6
				mu.Lock()
				s.res.perClass[c.class] = append(s.res.perClass[c.class], v)
				s.res.all = append(s.res.all, v)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.busy += time.Since(t0)
	s.next = end
}

// finish derives throughput and the /statusz deltas and, in a traced
// run, replays the hot analyzes around the router.
func (s *serveSection) finish() (serveResult, error) {
	s.res.rps = float64(len(s.res.all)) / s.busy.Seconds()
	after, err := s.f.counters()
	if err != nil {
		return s.res, err
	}
	s.res.counters = after.delta(s.before)
	if s.tr != nil {
		s.f.replayDirect(s.mix, &s.res, s.tl, s.tr)
	}
	return s.res, nil
}

// replayDirect prices the layers of a hot analyze by sending the same
// request three ways in turn: through the router, straight to the
// owning replica's listener, and into that replica's handler with no
// socket at all.
func (f *fleetEnv) replayDirect(mix serveMix, res *serveResult, tl *tally, tr *tracer) {
	const rounds = 40
	var viaRouter, viaReplica, viaHandler, sizes []float64
	for round := 0; round < rounds; round++ {
		for i, c := range mix.hot {
			owner := f.router.RouteKey(c.key)
			s := tr.begin("fleet.route+server.analyze", -1, i)
			d, n, err := f.do(f.front.URL, c)
			tr.end(s)
			if tl.op("serve replay via router", err) {
				viaRouter = append(viaRouter, float64(d.Nanoseconds())/1e3)
				sizes = append(sizes, float64(n))
			}
			s = tr.begin("server.analyze", -1, i)
			d, _, err = f.do(owner, c)
			tr.end(s)
			if tl.op("serve replay via replica", err) {
				viaReplica = append(viaReplica, float64(d.Nanoseconds())/1e3)
			}
			for j, srv := range f.servers {
				if srv.URL != owner {
					continue
				}
				req := httptest.NewRequest("POST", c.path, bytes.NewReader(c.body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				s = tr.begin("server.analyze_direct", -1, i)
				t0 := time.Now()
				f.replicas[j].Handler().ServeHTTP(rec, req)
				d = time.Since(t0)
				tr.end(s)
				if tl.op("serve replay via handler", checkReply(c, rec.Code, rec.Body.Bytes())) {
					viaHandler = append(viaHandler, float64(d.Nanoseconds())/1e3)
				}
			}
		}
	}
	res.routeUS = median(viaRouter) - median(viaReplica)
	res.directUS = median(viaHandler)
	res.respBytes = median(sizes)
}
