// Commutefleet is the fleet router: it fronts N commuted replicas and
// routes every request by the fingerprint of the program it names, so
// one program's warm cache entry lives on exactly one shard and the
// fleet's aggregate cache is the sum of its replicas' caches.
//
// Placement is rendezvous hashing over the shards: a program's owner
// is its top-scoring shard, and while the owner is down its programs go
// to the runner-up, so a dead shard's keys spread across the survivors
// while every other key stays put. A transport failure marks a shard
// down; a prober GETs /healthz on down shards every second and revives
// them as soon as they answer 200. 429s are retried honoring
// Retry-After (capped).
//
// Usage:
//
//	commuted -addr :8081 -blob-dir /tmp/artifacts &
//	commuted -addr :8082 -blob-dir /tmp/artifacts &
//	commuted -addr :8083 -blob-dir /tmp/artifacts &
//	commutefleet -addr :8080 -shards http://localhost:8081,http://localhost:8082,http://localhost:8083
//	curl -s -X POST localhost:8080/v1/analyze -d '{"app":"graph"}'
//	curl -s localhost:8080/statusz   # per-shard request/error/reroute counters
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"commute/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.String("shards", "", "comma-separated replica base URLs (required)")
	retries := flag.Int("retries", 2, "forwarding attempts beyond the first (-1: none)")
	maxRetryWait := flag.Duration("max-retry-wait", 2*time.Second, "cap on honored Retry-After hints")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	flag.Parse()

	if *shards == "" {
		log.Fatal("commutefleet needs -shards (comma-separated replica URLs)")
	}
	r := *retries
	if r == 0 {
		r = -1 // Config treats 0 as "default"; the flag's explicit 0 means none.
	}
	rt, err := fleet.NewRouter(fleet.Config{
		Shards:       strings.Split(*shards, ","),
		Retries:      r,
		MaxRetryWait: *maxRetryWait,
	})
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	defer rt.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("commutefleet listening on %s, %d shards", *addr, len(strings.Split(*shards, ",")))
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case sig := <-sigc:
		log.Printf("received %v, draining (up to %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Fatalf("drain incomplete: %v", err)
		}
		log.Printf("drained cleanly")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}
