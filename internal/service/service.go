// Package service hosts many concurrent tuning sessions behind an HTTP
// JSON API — the autotuning-as-a-service layer over the existing
// machinery. Each session is one journaled search (internal/journal):
// submissions persist before they are acknowledged, every evaluation is
// durable before the search observes it, and a daemon killed with
// SIGKILL mid-session resumes on restart bit-identically to an
// uninterrupted run. All sessions share one evaluation cache
// (internal/evalcache) keyed by evaluation scope, so identical work —
// within a session, across sessions, or across restarts (journals are
// ingested into the cache at startup) — is never re-evaluated. A
// bounded pool of runner goroutines caps cross-session concurrency,
// and internal/obs provides per-session traces plus a shared metrics
// registry.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/evalcache"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/spec"
)

// Options configures a Server.
type Options struct {
	// Root is the state directory; sessions live in Root/sessions/<id>.
	Root string
	// MaxSessions bounds how many sessions run concurrently (default 2).
	MaxSessions int
	// QueueDepth bounds how many accepted sessions can wait for a runner
	// (default 64); past it, submissions are refused with ErrBusy.
	QueueDepth int
	// TraceSessions writes a per-session JSONL event trace to
	// <session>/trace.jsonl.
	TraceSessions bool
	// Registry receives metrics from every session (created if nil).
	Registry *obs.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// ErrBusy is returned by Submit when the pending queue is full.
var ErrBusy = fmt.Errorf("service: session queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = fmt.Errorf("service: server closed")

// Server hosts tuning sessions. Create with New, serve its Handler,
// and Close it (after cancelling the context passed to New) to drain.
type Server struct {
	opts  Options
	ctx   context.Context
	cache *evalcache.Cache
	reg   *obs.Registry

	mu       sync.Mutex
	sessions map[string]*session
	order    []string
	nextID   int
	closed   bool

	queue   chan *session
	runners sync.WaitGroup
}

// New builds a Server rooted at opts.Root, recovers every persisted
// session (ingesting their journals into the evaluation cache, so work
// that survived a crash is never re-run), re-queues unfinished ones,
// and starts the runner pool. ctx governs every session run: cancel it
// to stop the daemon; in-flight searches drain their current evaluation,
// checkpoint, and are re-queued by the next New.
func New(ctx context.Context, opts Options) (*Server, error) {
	if opts.Root == "" {
		return nil, fmt.Errorf("service: Options.Root is required")
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Join(opts.Root, "sessions"), 0o755); err != nil {
		return nil, err
	}
	srv := &Server{
		opts:     opts,
		ctx:      ctx,
		cache:    evalcache.New(),
		reg:      opts.Registry,
		sessions: make(map[string]*session),
		nextID:   1,
		queue:    make(chan *session, opts.QueueDepth),
	}
	if err := srv.recover(); err != nil {
		return nil, err
	}
	srv.runners.Add(opts.MaxSessions)
	for i := 0; i < opts.MaxSessions; i++ {
		go func() {
			defer srv.runners.Done()
			srv.runLoop()
		}()
	}
	return srv, nil
}

// Cache exposes the shared evaluation cache (for export/import).
func (srv *Server) Cache() *evalcache.Cache { return srv.cache }

// Registry exposes the metrics registry.
func (srv *Server) Registry() *obs.Registry { return srv.reg }

// sessionsDir returns Root/sessions.
func (srv *Server) sessionsDir() string { return filepath.Join(srv.opts.Root, "sessions") }

// recover scans the sessions directory, rebuilding in-memory state and
// warming the cache from every journal (done, cancelled, or in-flight:
// a journal entry is a finished evaluation either way).
func (srv *Server) recover() error {
	entries, err := os.ReadDir(srv.sessionsDir())
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		s, err := srv.recoverOne(name)
		if err != nil {
			// A corrupt session directory must not take the daemon down —
			// surface it as a failed session instead.
			srv.opts.Logf("session %s: unrecoverable: %v", name, err)
			s = &session{
				id: name, dir: filepath.Join(srv.sessionsDir(), name),
				state: StateFailed, errMsg: err.Error(),
			}
		}
		srv.sessions[s.id] = s
		srv.order = append(srv.order, s.id)
		if n, ok := parseID(name); ok && n >= srv.nextID {
			srv.nextID = n + 1
		}
		if s.state == StatePending {
			select {
			case srv.queue <- s:
			default:
				s.state = StateFailed
				s.errMsg = ErrBusy.Error()
			}
		}
	}
	return nil
}

// recoverOne rebuilds one persisted session.
func (srv *Server) recoverOne(name string) (*session, error) {
	dir := filepath.Join(srv.sessionsDir(), name)
	raw, err := os.ReadFile(filepath.Join(dir, requestFile))
	if err != nil {
		return nil, err
	}
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("corrupt %s: %w", requestFile, err)
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("invalid persisted request: %w", err)
	}
	scope, err := req.Spec().Scope()
	if err != nil {
		return nil, err
	}
	s := &session{id: name, dir: dir, req: req, scope: scope}

	done := false
	if journal.Exists(s.journalDir()) {
		js, err := journal.Open(s.journalDir())
		if err != nil {
			return nil, err
		}
		recs, rerr := js.Records()
		done = js.Done()
		s.prior = js.Len()
		cerr := js.Close()
		if rerr != nil {
			return nil, rerr
		}
		if cerr != nil {
			return nil, cerr
		}
		for _, rec := range recs {
			srv.cache.IngestRecord(s.scope, rec)
		}
	}
	if _, err := os.Stat(s.tombstone()); err == nil {
		s.state = StateCancelled
		return s, nil
	}
	if done {
		s.state = StateDone
		return s, nil
	}
	s.state = StatePending
	s.resumed = s.prior > 0
	return s, nil
}

// parseID recovers the sequence number from a session id.
func parseID(id string) (int, bool) {
	if !strings.HasPrefix(id, "s-") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s-"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Submit validates and persists a new session, queues it for a runner,
// and returns it. The request is durable before Submit returns: a
// daemon killed immediately afterwards still runs the session after
// restart.
func (srv *Server) Submit(req Request) (Status, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return Status{}, err
	}
	scope, err := req.Spec().Scope()
	if err != nil {
		return Status{}, err
	}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return Status{}, ErrClosed
	}
	id := fmt.Sprintf("s-%06d", srv.nextID)
	srv.nextID++
	s := &session{
		id: id, dir: filepath.Join(srv.sessionsDir(), id),
		req: req, scope: scope,
		state: StatePending,
	}
	srv.sessions[id] = s
	srv.order = append(srv.order, id)
	srv.mu.Unlock()

	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		srv.dropSession(id)
		return Status{}, err
	}
	raw, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		srv.dropSession(id)
		return Status{}, err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, requestFile), raw); err != nil {
		srv.dropSession(id)
		return Status{}, err
	}
	select {
	case srv.queue <- s:
	default:
		srv.dropSession(id)
		_ = os.RemoveAll(s.dir)
		return Status{}, ErrBusy
	}
	srv.opts.Logf("session %s: accepted %s/%s %s nmax=%d seed=%d",
		id, req.Kernel, req.Machine, req.Algorithm, req.Budget, req.Seed)
	return s.status(), nil
}

// dropSession removes a session that failed to persist.
func (srv *Server) dropSession(id string) {
	srv.mu.Lock()
	delete(srv.sessions, id)
	for i, o := range srv.order {
		if o == id {
			srv.order = append(srv.order[:i], srv.order[i+1:]...)
			break
		}
	}
	srv.mu.Unlock()
}

// Session returns one session's status.
func (srv *Server) Session(id string) (Status, bool) {
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	srv.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return s.status(), true
}

// Sessions lists every session in creation order.
func (srv *Server) Sessions() []Status {
	srv.mu.Lock()
	ids := append([]string(nil), srv.order...)
	srv.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if st, ok := srv.Session(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// Cancel stops a session. Pending sessions are tombstoned immediately;
// running ones have their context cancelled (the runner tombstones them
// once the search drains). Finished sessions return an error.
func (srv *Server) Cancel(id string) (Status, error) {
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	srv.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("service: unknown session %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateCancelled:
		// Idempotent.
	case StatePending:
		s.cancelled = true
		if err := s.markCancelledLocked(); err != nil {
			return Status{}, err
		}
	case StateRunning:
		s.cancelled = true
		if s.stop != nil {
			s.stop()
		}
	default:
		return Status{}, fmt.Errorf("service: session %s already %s", id, s.state)
	}
	st := Status{
		ID: s.id, State: s.state, Request: s.req,
		Resumed: s.resumed, Error: s.errMsg,
	}
	return st, nil
}

// Result returns a finished session's full record trajectory.
func (srv *Server) Result(id string) (ResultJSON, error) {
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	srv.mu.Unlock()
	if !ok {
		return ResultJSON{}, fmt.Errorf("service: unknown session %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateDone {
		return ResultJSON{}, fmt.Errorf("service: session %s is %s, not done", id, s.state)
	}
	res, err := s.loadResult()
	if err != nil {
		return ResultJSON{}, err
	}
	return resultJSON(s.id, res), nil
}

// BestOf returns a finished session's best configuration.
func (srv *Server) BestOf(id string) (Best, error) {
	srv.mu.Lock()
	s, ok := srv.sessions[id]
	srv.mu.Unlock()
	if !ok {
		return Best{}, fmt.Errorf("service: unknown session %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateDone {
		return Best{}, fmt.Errorf("service: session %s is %s, not done", id, s.state)
	}
	res, err := s.loadResult()
	if err != nil {
		return Best{}, err
	}
	best, idx, ok := res.Best()
	if !ok {
		return Best{}, fmt.Errorf("service: session %s has no successful evaluations", id)
	}
	base, err := s.req.Spec().Base()
	if err != nil {
		return Best{}, err
	}
	return Best{
		ID: s.id, State: s.state,
		Config: best.Config, Rendered: base.Space().String(best.Config),
		RunTime: best.RunTime, FoundAfter: idx + 1,
		Evaluations: len(res.Records), Skipped: res.Skipped,
		Counts: res.Counts(),
	}, nil
}

// Close stops accepting sessions and waits for the runner pool to
// drain. Cancel the New context first to interrupt running searches;
// otherwise Close waits for them to finish naturally.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	srv.closed = true
	srv.mu.Unlock()
	close(srv.queue)
	srv.runners.Wait()
}

// runLoop is one runner worker: it executes queued sessions until the
// queue closes or the server context is cancelled.
func (srv *Server) runLoop() {
	for {
		select {
		case <-srv.ctx.Done():
			return
		case s, ok := <-srv.queue:
			if !ok {
				return
			}
			srv.runSession(s)
		}
	}
}

// runSession drives one session through the full stack:
// journal(cache(throttle(resilient(faults(base))))).
func (srv *Server) runSession(s *session) {
	s.mu.Lock()
	if s.cancelled || s.state == StateCancelled {
		if s.state != StateCancelled {
			if err := s.markCancelledLocked(); err != nil {
				srv.opts.Logf("session %s: %v", s.id, err)
			}
		}
		s.mu.Unlock()
		return
	}
	sp := s.req.Spec()
	p, err := sp.Base()
	if err != nil {
		s.state = StateFailed
		s.errMsg = err.Error()
		s.mu.Unlock()
		return
	}
	p, _ = sp.Build(p)
	if s.req.ThrottleMS > 0 {
		p = spec.Throttled{Problem: p, Wait: time.Duration(s.req.ThrottleMS) * time.Millisecond}
	}
	cp := srv.cache.Problem(p, s.scope)
	s.cp = cp

	ctx, cancel := context.WithCancel(srv.ctx)
	s.stop = cancel
	s.state = StateRunning
	s.mu.Unlock()
	defer cancel()

	sinks := []obs.Sink{obs.NewMetricsSink(srv.reg)}
	var traceSink *obs.JSONLSink
	if srv.opts.TraceSessions {
		f, err := os.OpenFile(filepath.Join(s.dir, traceFile),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			srv.opts.Logf("session %s: trace: %v", s.id, err)
		} else {
			traceSink = obs.NewJSONLSink(f)
			sinks = append(sinks, traceSink)
		}
	}
	ctx = obs.WithTracer(ctx, obs.New(obs.Multi(sinks...)))
	ctx = obs.WithTrace(ctx, obs.TraceContext{
		TraceID: s.id + "-" + s.req.Algorithm + "-" + cp.Name(),
		SpanID:  obs.RootSpanID,
	})

	srv.opts.Logf("session %s: running", s.id)
	res, info, err := srv.runJournaled(ctx, s, cp)
	if traceSink != nil {
		if cerr := traceSink.Close(); cerr != nil {
			srv.opts.Logf("session %s: trace close: %v", s.id, cerr)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stop = nil
	switch {
	case err != nil:
		s.state = StateFailed
		s.errMsg = err.Error()
		srv.opts.Logf("session %s: failed: %v", s.id, err)
	case info.Done:
		s.state = StateDone
		s.res = res
		s.resumed, s.prior = info.Resumed, info.Prior
		srv.opts.Logf("session %s: done (%d evaluations)", s.id, len(res.Records))
	case s.cancelled:
		if err := s.markCancelledLocked(); err != nil {
			srv.opts.Logf("session %s: %v", s.id, err)
		}
		srv.opts.Logf("session %s: cancelled after %d evaluations", s.id, len(res.Records))
	default:
		// Daemon shutdown: the journal holds a resumable checkpoint; the
		// next daemon start re-queues the session.
		s.state = StateInterrupted
		srv.opts.Logf("session %s: interrupted after %d evaluations (resumable)", s.id, len(res.Records))
	}
}

// runJournaled runs the session's search through its crash-safe
// journal, creating it or resuming bit-exactly from what it holds.
func (srv *Server) runJournaled(ctx context.Context, s *session, p search.Problem) (
	*search.Result, *journal.RunInfo, error) {

	var pulls map[string]int
	res, info, err := s.req.Spec().RunJournaled(ctx, s.journalDir(), p, journal.WrapOptions{}, &pulls)
	if err == nil && pulls != nil {
		s.mu.Lock()
		s.pulls = pulls
		s.mu.Unlock()
	}
	return res, info, err
}
