package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// MetricsServer is the zero-dependency observability endpoint shared by
// cmd/autotune, cmd/experiments, and cmd/brokerd: plain net/http serving
// the registry's text snapshot at /metrics and a liveness probe at
// /healthz. It exists for operators poking at a live run — nothing in
// the search path depends on it, and it reads the registry through the
// same atomic/locked accessors the sinks write through, so scraping
// cannot perturb results.
type MetricsServer struct {
	ln    net.Listener
	srv   *http.Server
	grace time.Duration
}

// closeGrace bounds how long Close waits for in-flight scrapes before
// aborting them.
const closeGrace = 2 * time.Second

// ServeMetrics starts serving reg on addr (e.g. "127.0.0.1:9090", or
// ":0" to pick a free port) in a background goroutine. Close the
// returned server when done.
func ServeMetrics(addr string, reg *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &MetricsServer{ln: ln, srv: &http.Server{Handler: Handler(reg)}, grace: closeGrace}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Handler serves reg's text snapshot at /metrics and a liveness probe
// at /healthz; ServeMetrics and the tuning service both mount it.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, reg.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Addr returns the bound address, useful with ":0".
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections and lets in-flight scrapes finish,
// bounded by a short grace period; handlers still running past it are
// aborted. The old behavior — http.Server.Close outright — cut the
// connection under a scraper mid-response, so a shutdown racing a
// /metrics poll returned truncated bodies.
func (s *MetricsServer) Close() error {
	done := make(chan struct{})
	tm := time.AfterFunc(s.grace, func() { close(done) })
	defer tm.Stop()
	if err := s.srv.Shutdown(graceCtx{done: done}); err != nil {
		// Grace expired (or the listener already failed): abort whatever
		// is still in flight so Close never hangs.
		cerr := s.srv.Close()
		if err == context.DeadlineExceeded {
			return cerr
		}
		return err
	}
	return nil
}

// graceCtx adapts a plain channel into the context.Context that
// http.Server.Shutdown wants, without minting a fresh background
// context outside package main (the repo's ctxflow rule). No deadline
// is advertised; Shutdown only watches Done.
type graceCtx struct{ done <-chan struct{} }

func (c graceCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c graceCtx) Done() <-chan struct{}       { return c.done }
func (c graceCtx) Value(any) any               { return nil }

func (c graceCtx) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}
