// Command autotuned is the autotuning service daemon: a long-running,
// zero-dependency HTTP server hosting many concurrent tuning sessions
// over one shared evaluation cache.
//
// Usage:
//
//	autotuned -root DIR [-addr 127.0.0.1:8080] [-sessions 2]
//	          [-queue 64] [-trace-sessions] [-cache FILE] [-metrics-addr ADDR]
//
// The API (see internal/service):
//
//	POST   /sessions        submit {kernel, machine, algorithm, budget, seed, ...}
//	GET    /sessions        list sessions
//	GET    /sessions/{id}   poll progress (state, evaluations, cache hits/misses)
//	GET    /sessions/{id}/best    best configuration once done
//	GET    /sessions/{id}/result  the full record trajectory once done
//	DELETE /sessions/{id}   cancel
//	GET    /cache           export the evaluation cache artifact (JSON)
//	PUT    /cache           import an artifact (validated, first write wins)
//	GET    /cache/stats     cache size and hit/miss totals
//	GET    /metrics         metrics snapshot; GET /healthz liveness
//
// Every session journals each evaluation durably before the search
// observes it (internal/journal), so a daemon killed with SIGKILL
// restarts, re-ingests the journals into the cache, and resumes every
// in-flight session bit-identically to an uninterrupted run. -cache
// FILE additionally imports a cache artifact at startup (if the file
// exists) and exports the cache there on clean shutdown.
//
// -addr supports ":0"; the bound address is printed on stdout as
// "listening on http://HOST:PORT" so scripts and tests can scrape it.
// SIGINT/SIGTERM shut down gracefully: in-flight sessions drain their
// current evaluation, checkpoint, and are re-queued on the next start.
//
// Exit codes: 0 clean shutdown, 1 runtime failure, 2 bad usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/service"
)

const (
	exitOK      = 0
	exitError   = 1
	exitUsage   = 2
	shutdownMax = 10 * time.Second
)

func warnf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "autotuned: "+format+"\n", a...)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (\":0\" picks a free port)")
		root        = flag.String("root", "", "state directory for sessions and journals (required)")
		sessions    = flag.Int("sessions", 2, "max concurrently running sessions")
		queue       = flag.Int("queue", 64, "max sessions waiting for a runner slot")
		traceSess   = flag.Bool("trace-sessions", false, "write a JSONL event trace per session (<session>/trace.jsonl)")
		cacheFile   = flag.String("cache", "", "cache artifact FILE: imported at startup if present, exported on clean shutdown")
		metricsAddr = flag.String("metrics-addr", "", "also serve /metrics and /healthz on a separate ADDR")
	)
	flag.Parse()

	if *root == "" {
		warnf("-root is required")
		return exitUsage
	}
	if *sessions < 1 {
		warnf("-sessions must be >= 1, got %d", *sessions)
		return exitUsage
	}
	if *queue < 1 {
		warnf("-queue must be >= 1, got %d", *queue)
		return exitUsage
	}
	if flag.NArg() > 0 {
		warnf("unexpected arguments: %v", flag.Args())
		return exitUsage
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Each session composes its own tracer over the service's registry,
	// so the daemon takes only the registry and server -metrics-addr
	// asks for; without it the service makes its own registry.
	_, tel, err := obs.Open(ctx, obs.Outputs{MetricsAddr: *metricsAddr})
	if err != nil {
		warnf("%v", err)
		return exitError
	}
	defer func() {
		if cerr := tel.Close(false); cerr != nil {
			warnf("%v", cerr)
		}
	}()
	if *metricsAddr != "" {
		warnf("metrics at http://%s/metrics", tel.MetricsAddr())
	}
	srv, err := service.New(ctx, service.Options{
		Root:          *root,
		MaxSessions:   *sessions,
		QueueDepth:    *queue,
		TraceSessions: *traceSess,
		Registry:      tel.Registry(),
		Logf:          warnf,
	})
	if err != nil {
		warnf("%v", err)
		return exitError
	}

	if *cacheFile != "" {
		if f, err := os.Open(*cacheFile); err == nil {
			stats, ierr := srv.Cache().Import(f)
			if cerr := f.Close(); ierr == nil {
				ierr = cerr
			}
			if ierr != nil {
				warnf("cache import %s: %v", *cacheFile, ierr)
				srv.Close()
				return exitError
			}
			warnf("cache: imported %d entries from %s (%d already held)", stats.Added, *cacheFile, stats.Skipped)
		} else if !errors.Is(err, os.ErrNotExist) {
			warnf("cache import %s: %v", *cacheFile, err)
			srv.Close()
			return exitError
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		warnf("%v", err)
		srv.Close()
		return exitError
	}
	hs := &http.Server{Handler: srv.Handler()}
	// Stdout, not stderr: scripts and the e2e tests scrape this line.
	fmt.Printf("listening on http://%s\n", ln.Addr())
	warnf("root %s, %d runners", *root, *sessions)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	code := exitOK
	select {
	case <-ctx.Done():
		warnf("signal received, shutting down")
	case err := <-serveErr:
		warnf("http server: %v", err)
		code = exitError
	}

	sctx, cancel := context.WithTimeout(context.Background(), shutdownMax)
	if err := hs.Shutdown(sctx); err != nil {
		warnf("http shutdown: %v", err)
		_ = hs.Close()
	}
	cancel()
	// Stop the runners (the signal context already interrupted running
	// searches; they checkpoint and return) and drain the pool.
	srv.Close()

	if *cacheFile != "" {
		if err := durable.WriteFile(*cacheFile, srv.Cache().Export); err != nil {
			warnf("cache export %s: %v", *cacheFile, err)
			code = exitError
		} else {
			warnf("cache: exported %d entries to %s", srv.Cache().Len(), *cacheFile)
		}
	}
	warnf("bye")
	return code
}
