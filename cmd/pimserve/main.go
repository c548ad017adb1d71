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
	// The flags start from serve's own defaults, so -h prints the values
	// a bare run uses and no default is written twice.
	o := serve.Options{}.WithDefaults()
	addr := flag.String("addr", "127.0.0.1:8731", "listen address")
	flag.IntVar(&o.Workers, "workers", o.Workers, "simulation workers")
	flag.IntVar(&o.CacheEntries, "cache", o.CacheEntries, "result cache entries")
	flag.DurationVar(&o.RunTimeout, "run-timeout", o.RunTimeout, "per-simulation timeout")
	flag.DurationVar(&o.JobTimeout, "job-timeout", o.JobTimeout, "per-job timeout ceiling")
	flag.Float64Var(&o.MaxScale, "max-scale", o.MaxScale, "largest accepted workload scale")
	flag.IntVar(&o.MaxJobs, "max-jobs", o.MaxJobs, "retained finished job records")
	flag.Uint64Var(&o.SampleInterval, "sample-interval", o.SampleInterval, "progress sampler epoch (GPU cycles)")
	flag.IntVar(&o.MaxQueueInteractive, "queue-interactive", o.MaxQueueInteractive, "interactive admission-queue depth (429 beyond)")
	flag.IntVar(&o.MaxQueueBulk, "queue-bulk", o.MaxQueueBulk, "bulk admission-queue depth (429 beyond)")
	flag.StringVar(&o.StoreDir, "store", "", "persistent result store directory (empty = memory-only)")
	flag.Int64Var(&o.StoreMaxBytes, "store-max-bytes", o.StoreMaxBytes, "store disk quota; exceeding it degrades to memory-only")
	flag.BoolVar(&o.StoreNoSync, "store-no-sync", false, "skip per-record fsync (faster, last results may be lost to a power failure)")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "pause between readiness flipping false and the listener closing")
	flag.Parse()

	srv, err := serve.New(o)
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
	// pool and store shut down.
	srv.BeginDrain()
	time.Sleep(*drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("pimserve: http shutdown: %v", err)
	}
	srv.Close()
}
