package remote

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// Resolver maps a problem name from the wire to the worker's local
// instance of the same problem (cmd/brokerd: spec.Resolver).
type Resolver func(name string) (search.Problem, error)

// EvalGuard is the worker-side exactly-once guard: it collapses
// duplicate deliveries of the same task sequence into one evaluation
// and replays the cached outcome to every later copy. Retransmits
// after a lost result frame, duplicate-delivery storms, and lease
// reclaims that land back on the same guard therefore run the problem
// once per task and emit one worker-eval span, so stitched evaluation
// counts equal broker.submits, and the pool tests' deliberately stateful
// loopback problems stay bit-identical to inline.
//
// The guard's window is its own lifetime: worker sessions that share a
// guard (the loopback topology, or one guard per process in
// cmd/brokerd) share the exactly-once property across reconnects.
type EvalGuard struct {
	mu       sync.Mutex
	inflight map[int]*evalCall
	done     map[int]search.Outcome
}

// evalCall is one in-flight evaluation other copies wait on.
type evalCall struct {
	ready chan struct{}
	out   search.Outcome
}

// NewEvalGuard returns an empty guard.
func NewEvalGuard() *EvalGuard {
	return &EvalGuard{inflight: map[int]*evalCall{}, done: map[int]search.Outcome{}}
}

// Do evaluates task seq exactly once: the first caller runs eval, every
// concurrent or later caller gets the same outcome. Interrupted
// outcomes are returned but not cached — a retransmit after the worker
// recovers deserves a real evaluation.
func (g *EvalGuard) Do(seq int, eval func() search.Outcome) search.Outcome {
	g.mu.Lock()
	if out, ok := g.done[seq]; ok {
		g.mu.Unlock()
		return out
	}
	if c, ok := g.inflight[seq]; ok {
		g.mu.Unlock()
		<-c.ready
		return c.out
	}
	c := &evalCall{ready: make(chan struct{})}
	g.inflight[seq] = c
	g.mu.Unlock()

	c.out = eval()

	g.mu.Lock()
	if !c.out.Interrupted() {
		g.done[seq] = c.out
		g.prune(seq)
	}
	delete(g.inflight, seq)
	g.mu.Unlock()
	close(c.ready)
	return c.out
}

// prune bounds the outcome cache. Duplicates only ever arrive near the
// current sequence (a lease spans a bounded number of ticks), so
// dropping far-past entries cannot break the exactly-once window in
// practice; it keeps a long-running worker's memory flat.
func (g *EvalGuard) prune(seq int) {
	const keep = 4096
	if len(g.done) <= 2*keep {
		return
	}
	for s := range g.done {
		if s < seq-keep {
			delete(g.done, s)
		}
	}
}

// Worker serves pool tasks over a connection. Zero values get
// defaults from normalize; Resolve is required.
type Worker struct {
	// Resolve maps wire problem names to local instances (required).
	Resolve Resolver
	// Guard is the exactly-once evaluation guard (nil → a fresh one,
	// private to this worker).
	Guard *EvalGuard
	// Label names the worker in hello frames and telemetry.
	Label string
	// BeatEvery is the heartbeat period (default 25ms).
	BeatEvery time.Duration
	// Backoff/BackoffCap pace Run's reconnect attempts (defaults
	// 10ms / 1s, capped exponential).
	Backoff    time.Duration
	BackoffCap time.Duration
	// MaxAttempts bounds consecutive failed reconnect attempts in Run
	// (0 → 8). A successful session resets the count.
	MaxAttempts int
	// Faults injects send-side transport faults (nil → none). The conn
	// id is "w:<Label>".
	Faults NetFaults
	// Tracer receives reconnect events and worker-eval spans, and is
	// attached to evaluation contexts, so any telemetry the served
	// problem emits lands worker-side. Loopback topologies pass the
	// submission tracer here to keep full telemetry parity with inline
	// runs; separate worker processes get local telemetry instead (nil →
	// disabled).
	Tracer *obs.Tracer
}

func (w *Worker) normalize() {
	if w.Label == "" {
		w.Label = "worker"
	}
	if w.BeatEvery <= 0 {
		w.BeatEvery = 25 * time.Millisecond
	}
	if w.Backoff <= 0 {
		w.Backoff = 10 * time.Millisecond
	}
	if w.BackoffCap <= 0 {
		w.BackoffCap = time.Second
	}
	if w.MaxAttempts <= 0 {
		w.MaxAttempts = 8
	}
	if w.Guard == nil {
		w.Guard = NewEvalGuard()
	}
}

// Serve runs one worker session over conn: hello, then heartbeats and
// task service until the peer says bye (returns nil), the connection
// breaks (returns the error), or ctx is cancelled (returns ctx's
// error). Serve owns conn and closes it.
func (w *Worker) Serve(ctx context.Context, conn net.Conn) error {
	_, err := w.serve(ctx, conn)
	return err
}

// serve is Serve plus an established report: true once at least one
// frame was read back, which is what resets Run's backoff ladder (a
// session that dies before the handshake completes is a failed attempt,
// not progress).
func (w *Worker) serve(ctx context.Context, conn net.Conn) (established bool, _ error) {
	w.normalize()
	fc := newFrameConn(conn, "w:"+w.Label, w.Faults)

	// One session goroutine family; closed is the rally point.
	closed := make(chan struct{})
	var closeOnce sync.Once
	shutdown := func() { closeOnce.Do(func() { close(closed) }) }
	defer shutdown()
	defer func() {
		// The reader owns error reporting; close errors here would mask
		// the session's real outcome.
		_ = fc.close()
	}()

	if err := fc.write(Frame{Type: MsgHello, Label: w.Label}); err != nil {
		return false, fmt.Errorf("remote: hello: %w", err)
	}

	// Unblock the read loop on cancellation: closing the conn is the
	// portable way to interrupt a blocked Read.
	go func() {
		select {
		case <-ctx.Done():
			_ = fc.close()
		case <-closed:
		}
	}()

	// Heartbeats. A write error here means the conn is going down; the
	// read loop surfaces it.
	go func() {
		tick := time.NewTicker(w.BeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-closed:
				return
			case <-tick.C:
				if err := fc.write(Frame{Type: MsgBeat}); err != nil {
					return
				}
			}
		}
	}()

	// Per-task cancel funcs so MsgCancel can abandon a running eval.
	var mu sync.Mutex
	cancels := map[int]context.CancelFunc{}

	for {
		f, err := fc.read()
		if err != nil {
			if ctx.Err() != nil {
				return established, ctx.Err()
			}
			return established, err
		}
		established = true
		switch f.Type {
		case MsgTask:
			if f.Task == nil {
				continue
			}
			t := f.Task
			tctx, cancel := context.WithCancel(ctx)
			if t.RemainingNS > 0 {
				tctx, cancel = context.WithTimeout(ctx, time.Duration(t.RemainingNS))
			}
			mu.Lock()
			cancels[t.Seq] = cancel
			mu.Unlock()
			go func() {
				defer func() {
					mu.Lock()
					delete(cancels, t.Seq)
					mu.Unlock()
					cancel()
				}()
				res := w.evaluate(tctx, t)
				// A write error means the session is ending; the pool's
				// lease will expire and re-dispatch.
				_ = fc.write(Frame{Type: MsgResult, Result: res})
			}()
		case MsgCancel:
			mu.Lock()
			if cancel, ok := cancels[f.Seq]; ok {
				cancel()
			}
			mu.Unlock()
		case MsgBye:
			return true, nil
		case MsgBeat, MsgHello:
			// MsgBeat is the pool's hello-ack; nothing to do beyond
			// marking the session established above.
		}
	}
}

// evaluate resolves and runs one task through the exactly-once guard.
// An unresolvable name or a misfit config comes back Interrupted with
// the error (never settling the task), so the submitter re-dispatches
// or degrades inline, where the real problem instance lives.
func (w *Worker) evaluate(ctx context.Context, t *TaskPayload) *ResultPayload {
	p, err := w.Resolve(t.Problem)
	if err == nil {
		err = p.Space().Validate(space.Config(t.Config))
	}
	if err != nil {
		return &ResultPayload{Seq: t.Seq, Attempt: t.Attempt, Interrupted: true, Err: err.Error()}
	}
	if w.Tracer != nil {
		ctx = obs.WithTracer(ctx, w.Tracer)
	}
	// The worker-eval span is emitted only by the copy that actually ran
	// the problem — a guard replay answers from cache and did no work.
	// Span ids are re-derived from (Seq, Attempt), so this span joins the
	// coordinator's chain through the TraceID alone.
	traced := w.Tracer.Enabled() && t.Trace != ""
	ran := false
	var dur time.Duration
	out := w.Guard.Do(t.Seq, func() search.Outcome {
		ran = true
		var sw obs.Stopwatch
		if traced {
			sw = obs.StartTimer()
		}
		o := search.EvaluateFull(ctx, p, space.Config(t.Config))
		if traced {
			dur = sw.Elapsed()
		}
		return o
	})
	if traced && ran {
		w.Tracer.Span(obs.TraceContext{TraceID: t.Trace}, "worker-eval", t.Seq, t.Attempt, w.Label, dur)
	}
	res := outcomeToWire(t.Seq, out)
	res.Attempt = t.Attempt
	return res
}

// Run keeps a worker connected: dial, Serve, and on connection failure
// retry with capped exponential backoff. It returns nil after a
// graceful bye, ctx's error on cancellation, and the last error once
// MaxAttempts consecutive dials or sessions fail.
func (w *Worker) Run(ctx context.Context, dial func(ctx context.Context) (net.Conn, error)) error {
	w.normalize()
	attempt := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := dial(ctx)
		if err == nil {
			var established bool
			established, err = w.serve(ctx, conn)
			if err == nil {
				return nil // graceful bye
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if established {
				// The session got past the handshake (the pool acks hello
				// with a beat): real progress, restart the backoff ladder.
				attempt = 0
			}
		}
		attempt++
		lastErr = err
		if attempt > w.MaxAttempts {
			return fmt.Errorf("remote: worker %s gave up after %d attempts: %w", w.Label, attempt-1, lastErr)
		}
		backoff := w.Backoff << (attempt - 1)
		if backoff > w.BackoffCap {
			backoff = w.BackoffCap
		}
		w.Tracer.Reconnect(w.Label, attempt, backoff.Seconds(), err)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}
