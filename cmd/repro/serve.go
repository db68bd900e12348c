package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/server"
)

// cmdServe runs the long-lived job server: sweeps and machine runs submitted
// over HTTP execute on the shared engine and content-keyed cache, so the
// service and the one-shot CLI produce identical results from the same
// cache directory. It serves until SIGINT/SIGTERM, then shuts down
// gracefully: the listener stops, in-flight requests and running jobs get
// the -grace budget to finish.
//
// The server is also the sweep-fabric coordinator: `repro worker` processes
// register under /fabric/v1/ and submitted sweeps shard across them in
// leased batches that keep each kernel's points on one worker where they
// can, every accepted result merging into the server's cache so
// streamed JSONL stays byte-identical to the single-process path. With no
// workers registered sweeps run on the local engine exactly as before, so
// mounting the fabric costs nothing.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	cacheDir := fs.String("cache", ".sweep-cache", "result cache directory shared with 'repro sweep' (empty disables caching)")
	workers := fs.Int("workers", 0, "measurement workers per job (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", server.DefaultMaxConcurrentJobs, "jobs executing concurrently; further submissions queue")
	history := fs.Int("history", server.DefaultMaxHistory, "finished jobs kept before the oldest are evicted")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown budget for in-flight requests and jobs")
	lease := fs.Duration("lease", fabric.DefaultLeaseTTL, "fabric lease TTL: a worker batch unreported past this re-queues")
	batch := fs.Int("batch", fabric.DefaultBatch, "fabric: most points per worker lease and per report (a lease keeps to one kernel's points where it can and shrinks as the queue drains)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *lease <= 0 {
		return usageErrf("bad -lease %v (want a positive duration)", *lease)
	}
	if *batch < 1 {
		return usageErrf("bad -batch %d (want at least 1)", *batch)
	}

	// Every submitted job measures through this one engine, so its cache,
	// warm-machine pool and singleflight are service-wide.
	eng, err := newEngine(*workers, *cacheDir)
	if err != nil {
		return err
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	coord := &fabric.Coordinator{
		Eng: eng, Cache: eng.Cache, LeaseTTL: *lease, Batch: *batch, Log: log,
	}
	srv := server.New(server.Config{
		Engine: eng, Runner: coord, Log: log,
		MaxHistory: *history, MaxConcurrentJobs: *jobs,
	})
	// The fabric protocol mounts beside the API on the same listener; its
	// high-frequency worker polls skip the request-logging middleware.
	mux := http.NewServeMux()
	mux.Handle("/fabric/v1/", coord.Handler())
	mux.Handle("/", srv.Handler())
	hs := &http.Server{Handler: mux}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	log.Info("serving", "addr", ln.Addr().String(), "cache", *cacheDir, "jobs", *jobs, "history", *history, "lease", *lease, "batch", *batch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Info("shutting down", "grace", *grace)
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := srv.Drain(sctx); err != nil {
		return fmt.Errorf("serve: jobs still running after %s", *grace)
	}
	log.Info("stopped")
	return nil
}
