// Commuted is the commutativity-analysis daemon: a long-running HTTP
// service exposing the whole pipeline — analysis, hardened execution,
// and simulated-multiprocessor speedups — over a content-addressed
// artifact cache, so repeated requests for the same program skip
// parse, type check, analysis, and compilation entirely.
//
// Usage:
//
//	commuted -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/analyze -d '{"app":"quickstart"}'
//	curl -s -X POST localhost:8080/v1/run -d '{"app":"graph","mode":"parallel","workers":8}'
//	curl -s localhost:8080/statusz
//
// On SIGTERM/SIGINT the daemon drains: /healthz flips to 503 (so load
// balancers stop routing), no new connections are accepted, and
// in-flight requests run to completion (bounded by -drain-timeout)
// before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"commute/internal/server"
	"commute/internal/server/cache"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent request executions (0: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "requests allowed to wait for a worker before 429 (-1: none)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "artifact cache budget in bytes")
	maxOutput := flag.Int64("max-output", 1<<20, "per-request program output cap in bytes")
	defaultTimeout := flag.Duration("default-timeout", 10*time.Second, "execution deadline when a request doesn't set one")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "ceiling on requested execution deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	blobDir := flag.String("blob-dir", "", "shared artifact directory (fleet tier); empty disables")
	peers := flag.String("peers", "", "comma-separated peer base URLs to pull artifacts from")
	batchLinger := flag.Duration("batch-linger", 2*time.Millisecond, "window for coalescing identical /v1/analyze requests (0 or negative: off)")
	flag.Parse()

	q := *queue
	if q == 0 {
		q = -1 // Config treats 0 as "default"; the flag's 0 means none.
	}

	// Assemble the artifact tier: shared directory first (cheapest),
	// then peer fetch. Either alone also works.
	var tiers cache.Tiered
	if *blobDir != "" {
		ds, err := cache.NewDirStore(*blobDir)
		if err != nil {
			log.Fatalf("blob dir: %v", err)
		}
		tiers = append(tiers, ds)
	}
	if *peers != "" {
		tiers = append(tiers, cache.NewHTTPPeerStore(strings.Split(*peers, ","), nil))
	}
	var blobs cache.BlobStore
	if len(tiers) > 0 {
		blobs = tiers
	}

	linger := *batchLinger
	if linger == 0 {
		linger = -1 // Config treats 0 as "default"; the flag's explicit 0 means off.
	}
	srv := server.New(server.Config{
		Workers:        *workers,
		Queue:          q,
		CacheBytes:     *cacheBytes,
		MaxOutputBytes: *maxOutput,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Blobs:          blobs,
		BatchLinger:    linger,
	})

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("commuted listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case sig := <-sigc:
		log.Printf("received %v, draining (up to %v)", sig, *drainTimeout)
		srv.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", err)
			os.Exit(1)
		}
		log.Printf("drained cleanly")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}
