// Command pimserve exposes the simulator as a service: an HTTP/JSON
// daemon running simulation requests on a bounded worker pool with a
// priority queue, admission control, a content-addressed result cache,
// and (with -store) a crash-safe persistent backing store the cache
// warm-loads from after a restart. See docs/ARCHITECTURE.md ("Serving:
// pimserve" and "Persistence & degraded mode") for the API and the
// durability contract.
//
// Usage:
//
//	pimserve -addr 127.0.0.1:8731 -workers 8 -cache 4096 -store /var/lib/pimserve
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8731", "listen address")
		workers     = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		cacheSize   = flag.Int("cache", 4096, "result cache entries")
		runTimeout  = flag.Duration("run-timeout", 5*time.Minute, "per-simulation timeout")
		jobTimeout  = flag.Duration("job-timeout", 10*time.Minute, "per-job timeout ceiling")
		maxScale    = flag.Float64("max-scale", 1.0, "largest accepted workload scale")
		maxJobs     = flag.Int("max-jobs", 16384, "retained finished job records")
		sampleEvery = flag.Uint64("sample-interval", 2048, "progress sampler epoch (GPU cycles)")

		queueIA   = flag.Int("queue-interactive", 256, "interactive admission-queue depth (429 beyond)")
		queueBulk = flag.Int("queue-bulk", 1024, "bulk admission-queue depth (429 beyond)")

		storeDir     = flag.String("store", "", "persistent result store directory (empty = memory-only)")
		storeMax     = flag.Int64("store-max-bytes", 256<<20, "store disk quota; exceeding it degrades to memory-only")
		storeCompact = flag.Int("store-compact-every", 512, "journal records between snapshot compactions")
		storeNoSync  = flag.Bool("store-no-sync", false, "skip per-record fsync (faster, last results may be lost to a crash)")

		drainGrace = flag.Duration("drain-grace", 500*time.Millisecond, "pause between readiness flipping false and the listener closing")
	)
	flag.Parse()

	srv, err := serve.New(serve.Options{
		Workers:             *workers,
		CacheEntries:        *cacheSize,
		RunTimeout:          *runTimeout,
		JobTimeout:          *jobTimeout,
		MaxScale:            *maxScale,
		MaxJobs:             *maxJobs,
		SampleInterval:      *sampleEvery,
		MaxQueueInteractive: *queueIA,
		MaxQueueBulk:        *queueBulk,
		StoreDir:            *storeDir,
		StoreMaxBytes:       *storeMax,
		StoreCompactEvery:   *storeCompact,
		StoreNoSync:         *storeNoSync,
	})
	if err != nil {
		log.Fatalf("pimserve: %v", err)
	}

	// Catch the shutdown signals before anything can learn the address: a
	// SIGTERM sent the moment "listening" is printed must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pimserve: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}

	done := make(chan error, 1)
	// Process-lifetime acceptor: Serve returns when Shutdown below
	// closes the listener, and the buffered channel lets the goroutine
	// exit even if the signal path wins the select.
	//pimlint:detached — acceptor loop lives for the process; hs.Shutdown unblocks Serve and main exits behind it
	go func() { done <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "pimserve: listening on http://%s\n", ln.Addr())

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pimserve: %v, shutting down\n", sig)
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("pimserve: %v", err)
		}
	}

	// Ordered drain: readiness flips false FIRST (load balancers stop
	// routing, SSE streams get their terminal event), then — after a
	// short grace so in-flight health probes observe it — the listener
	// stops accepting and in-flight requests complete, then the worker
	// pool and store shut down (Close compacts the journal).
	srv.BeginDrain()
	time.Sleep(*drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("pimserve: http shutdown: %v", err)
	}
	srv.Close()
}
