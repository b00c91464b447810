package remote

import (
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// Telemetry labels and the re-dispatch backoff cap. Submission-side
// events (enqueue, broker-retry, hedge) carry brokerLabel; session-side
// events (lease, remote-worker, heartbeat-miss, warnings) carry
// poolLabel.
const (
	brokerLabel = "broker"
	poolLabel   = "remote"
	backoffCap  = 50 * time.Millisecond
)

// PoolOptions configures a Pool. The zero value means: 2 re-dispatch
// retries with 1ms backoff, hedging disabled, leases of 20 monitor
// ticks, death after 4 consecutive silent ticks, a 25ms internal monitor
// tick, no transport faults, no tracing.
type PoolOptions struct {
	// Retries bounds re-dispatches per task after a lost lease (0 → 2,
	// negative → none). Exhausting the budget degrades the task to
	// inline execution rather than failing it.
	Retries int
	// Backoff is the base re-dispatch pause, growing as Backoff*2^k and
	// capped at 50ms (default 1ms). Wall-clock only: it paces recovery,
	// it is never charged to the search clock.
	Backoff time.Duration
	// HedgeAfter dispatches one extra copy of a task still running after
	// this long, so a straggling worker cannot stall the search. 0
	// disables hedging.
	HedgeAfter time.Duration
	// LeaseTicks is a dispatched copy's lease, counted in monitor ticks;
	// when it reaches zero without a result the lease is reclaimed and
	// the submitter re-dispatches.
	LeaseTicks int
	// MaxMissedBeats is the failure detector's threshold: a session
	// silent for this many consecutive monitor ticks is declared dead,
	// its connection closed and its leases reclaimed.
	MaxMissedBeats int
	// TickEvery is the internal monitor period. Ticks overrides it with
	// an injected tick source, making the lease/heartbeat state machine
	// fully deterministic for tests: every transition is a function of
	// (frames received, ticks delivered), never of elapsed wall time.
	TickEvery time.Duration
	Ticks     <-chan time.Time
	// Faults injects send-side transport faults on pool connections
	// (nil → none). Conn ids are "p:s<session>".
	Faults NetFaults
	// Tracer receives session-level events: remote-worker transitions,
	// heartbeat misses, dup-results. Task-level events go to each
	// submission's own tracer. nil → disabled.
	Tracer *obs.Tracer
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = time.Millisecond
	}
	if o.LeaseTicks <= 0 {
		o.LeaseTicks = 20
	}
	if o.MaxMissedBeats <= 0 {
		o.MaxMissedBeats = 4
	}
	if o.TickEvery <= 0 {
		o.TickEvery = 25 * time.Millisecond
	}
	return o
}

// session is one connected worker on the pool side.
type session struct {
	id    int
	label string
	fc    *frameConn

	// guarded by Pool.mu
	missed      int  // consecutive silent monitor ticks
	seen        bool // frame received since the last tick
	outstanding int  // leased copies
	gone        bool // dead or closed; never dispatch to it again
}

// leaseKey names one dispatched copy of a task. A hedge or a
// re-dispatch holds its own lease beside the copies before it, and the
// worker echoes the attempt in its result.
type leaseKey struct{ seq, attempt int }

// lease is one dispatched copy awaiting its result.
type lease struct {
	t       *task
	session int
	ticks   int
}

// task is one submitted evaluation. The claim guard (mu/claimed) makes
// it settle exactly once no matter how many copies — hedges,
// re-dispatches, the inline fallback — race to execute it.
type task struct {
	seq   int
	p     search.Problem
	c     space.Config
	ctx   context.Context
	tr    *obs.Tracer
	trace obs.TraceContext
	done  chan struct{} // closed once a remote copy settles the task
	// reclaimed wakes the submitter when a copy's lease is lost. One
	// slot: a pending wake-up already triggers a re-dispatch, so later
	// ones are dropped rather than blocking the monitor or a read loop.
	reclaimed chan string

	mu      sync.Mutex
	claimed bool
	out     search.Outcome

	dispatches int         // dispatch attempts; touched by the submitter only
	cancelled  atomic.Bool // submitter gave up (ctx done)
	hedged     atomic.Bool // a hedge copy was issued
}

// interruptedOutcome is the sentinel outcome for a cancelled submission:
// Outcome.Interrupted() is true, so the search never records it.
func interruptedOutcome(err error) search.Outcome {
	return search.Outcome{RunTime: math.Inf(1), Status: search.StatusFailed, Err: err}
}

// settle records a remote outcome unless another copy already claimed
// the task, and reports whether it won.
func (t *task) settle(out search.Outcome) bool {
	t.mu.Lock()
	if t.claimed {
		t.mu.Unlock()
		return false
	}
	t.claimed = true
	t.out = out
	t.mu.Unlock()
	close(t.done)
	return true
}

// wake tells the submitter that one of its copies lost its lease.
func (t *task) wake(reason string) {
	select {
	case t.reclaimed <- reason:
	default:
	}
}

// inline claims the task and evaluates it on the submitting goroutine,
// marking the outcome Degraded; reason explains the fallback in
// telemetry. A remote copy that already settled the task wins instead.
func (t *task) inline(reason string) search.Outcome {
	t.mu.Lock()
	if t.claimed {
		out := t.out
		t.mu.Unlock()
		return out
	}
	t.claimed = true
	t.mu.Unlock()
	t.tr.Degraded(reason)

	traced := t.tr.Enabled() && t.trace.Valid()
	var sw obs.Stopwatch
	if traced {
		sw = obs.StartTimer()
	}
	out := search.EvaluateFull(t.ctx, t.p, t.c)
	out.Degraded = true
	if traced {
		t.tr.Span(t.trace, "worker-eval", t.seq, t.dispatches, "inline", sw.Elapsed())
	}
	t.tr.Span(t.trace, "result", t.seq, t.dispatches, "inline", 0)
	return out
}

// Pool serves evaluations to connected worker sessions. Each submitter
// dispatches its own task (Evaluate): the pool holds the claim guard,
// lease-based exactly-once accounting, hedging, capped-backoff
// re-dispatch, and inline degradation, detects dead workers by missed
// heartbeats, and degrades to inline evaluation when no worker can
// serve — so the search always terminates, worker processes or not.
type Pool struct {
	opt PoolOptions
	tr  *obs.Tracer

	mu       sync.Mutex
	seq      int // next task sequence number
	nextID   int
	sessions map[int]*session
	leases   map[leaseKey]*lease
	closed   bool
	ln       net.Listener

	stop chan struct{} // closed by Close; waiting submitters go inline
	once sync.Once
	wg   sync.WaitGroup
}

// NewPool starts a pool's monitor loop. Connect workers with AddConn
// (pre-established connections, e.g. loopback pipes) or Serve (a
// listener), evaluate through Evaluate (or wrap a Problem with Problem),
// and Close the pool when done.
func NewPool(opt PoolOptions) *Pool {
	opt = opt.withDefaults()
	p := &Pool{
		opt:      opt,
		tr:       opt.Tracer,
		sessions: map[int]*session{},
		leases:   map[leaseKey]*lease{},
		stop:     make(chan struct{}),
	}
	p.wg.Add(1)
	go p.monitorLoop()
	return p
}

// Close stops the pool: waiting and later submitters evaluate inline
// (degraded), every session is closed (best-effort bye) with the
// listener, and Close waits for the pool's goroutines to retire.
// Idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.stop)

		p.mu.Lock()
		p.closed = true
		sessions := make([]*session, 0, len(p.sessions))
		for _, s := range p.sessions {
			sessions = append(sessions, s)
		}
		ln := p.ln
		p.mu.Unlock()

		if ln != nil {
			// The accept loop reports its own exit; a double-close error
			// here is expected and meaningless.
			_ = ln.Close()
		}
		for _, s := range sessions {
			_ = s.fc.write(Frame{Type: MsgBye})
			if err := s.fc.close(); err != nil {
				p.tr.Warn(poolLabel, fmt.Sprintf("close session %d: %v", s.id, err))
			}
		}
	})
	p.wg.Wait()
}

// Serve accepts worker connections from ln until the pool is closed.
// The pool takes ownership of ln.
func (p *Pool) Serve(ln net.Listener) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = ln.Close()
		return
	}
	p.ln = ln
	// Add under mu: Close sets closed under the same lock before it
	// waits, so the goroutine is either counted or never spawned.
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed (pool shutdown) or fatal
			}
			if _, err := p.AddConn(conn); err != nil {
				p.tr.Warn(poolLabel, "handshake: "+err.Error())
			}
		}
	}()
}

// wallNow is the pool's one wall-clock read. Both uses are liveness
// bounds: the hello handshake deadline, and the remaining time a task
// frame carries so a worker abandons an evaluation its submitter has
// given up on. Neither reaches a task outcome.
func wallNow() time.Time {
	//lint:ignore detflow liveness-only: bounds the hello handshake and the remaining deadline a task frame carries; never reaches a task outcome
	return time.Now()
}

// AddConn registers one worker connection: it performs the hello
// handshake synchronously (so a returned nil error means the session
// is live and dispatchable), acks it with a beat, and starts the
// session's read loop. The pool takes ownership of conn.
func (p *Pool) AddConn(conn net.Conn) (int, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = conn.Close()
		return 0, fmt.Errorf("remote: pool closed")
	}
	id := p.nextID
	p.nextID++
	p.mu.Unlock()

	fc := newFrameConn(conn, fmt.Sprintf("p:s%d", id), p.opt.Faults)
	// Bound the handshake so a stalled dialer cannot wedge an accept
	// loop; the deadline is cleared once the session is live.
	if err := conn.SetReadDeadline(wallNow().Add(5 * time.Second)); err != nil {
		_ = fc.close()
		return 0, fmt.Errorf("remote: handshake deadline: %w", err)
	}
	f, err := fc.read()
	if err != nil {
		_ = fc.close()
		return 0, fmt.Errorf("remote: hello: %w", err)
	}
	if f.Type != MsgHello {
		_ = fc.close()
		return 0, fmt.Errorf("remote: expected hello, got %q", f.Type)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		_ = fc.close()
		return 0, fmt.Errorf("remote: clear handshake deadline: %w", err)
	}

	s := &session{id: id, label: f.Label, fc: fc}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = fc.close()
		return 0, fmt.Errorf("remote: pool closed")
	}
	p.sessions[id] = s
	p.wg.Add(1) // under mu, see Serve
	p.mu.Unlock()
	p.tr.RemoteWorker(poolLabel, id, "connected")

	// Ack the hello: the worker's reconnect ladder resets once it reads
	// a frame back. Best effort — a send fault here costs nothing.
	_ = fc.write(Frame{Type: MsgBeat})

	go func() {
		defer p.wg.Done()
		p.readLoop(s)
	}()
	return id, nil
}

// Sessions reports the live (non-gone) session count.
func (p *Pool) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.sessions {
		if !s.gone {
			n++
		}
	}
	return n
}

// poolClosed explains an inline degradation after Close.
const poolClosed = "broker: pool closed; evaluating inline"

// Evaluate submits one evaluation of c on prob and blocks until it has
// an outcome. The submitting goroutine dispatches its own task:
//
//   - it leases the task to the least-loaded live session and waits;
//   - a lost lease (expiry, dead session, failed send, interrupted
//     result), or no live session at all, re-dispatches after a capped
//     backoff while the retry budget lasts, then evaluates inline;
//   - a task still running after HedgeAfter gets one extra copy, and the
//     first copy to settle wins;
//   - once the pool is closed the task evaluates inline.
//
// Inline fallbacks mark the outcome Degraded. Context cancellation
// returns an Interrupted outcome at once, and the monitor cancels the
// task's outstanding copies on its next tick.
func (p *Pool) Evaluate(ctx context.Context, prob search.Problem, c space.Config) search.Outcome {
	if err := ctx.Err(); err != nil {
		return interruptedOutcome(err)
	}
	t := &task{
		p: prob, c: c, ctx: ctx,
		tr:        obs.FromContext(ctx),
		trace:     obs.TraceFrom(ctx),
		done:      make(chan struct{}),
		reclaimed: make(chan string, 1),
	}
	p.mu.Lock()
	t.seq = p.seq
	p.seq++
	closed := p.closed
	p.mu.Unlock()

	// The task's anchor span (parent: the run root); every later stage of
	// this evaluation's causal chain hangs below it.
	t.tr.SpanRoot(t.trace, t.seq, -1)
	if closed {
		return t.inline(poolClosed)
	}
	t.tr.Enqueue(brokerLabel, t.seq)
	t.tr.Span(t.trace, "enqueue", t.seq, 0, "", 0)

	var hedge <-chan time.Time
	if p.opt.HedgeAfter > 0 {
		timer := time.NewTimer(p.opt.HedgeAfter)
		defer timer.Stop()
		hedge = timer.C
	}
	var redispatch <-chan time.Time // non-nil while a re-dispatch is pending
	retries := 0

	p.dispatch(t)
	for {
		select {
		case <-t.done:
			return t.out
		case <-ctx.Done():
			t.cancelled.Store(true)
			return interruptedOutcome(ctx.Err())
		case <-p.stop:
			return t.inline(poolClosed)
		case <-hedge:
			hedge = nil
			t.hedged.Store(true)
			t.tr.Hedge(brokerLabel, t.seq, false)
			p.dispatch(t)
		case reason := <-t.reclaimed:
			if redispatch != nil {
				continue // the pending re-dispatch replaces this copy too
			}
			retries++
			if retries > p.opt.Retries {
				return t.inline("broker: retries exhausted or no healthy worker; evaluating inline")
			}
			backoff := min(p.opt.Backoff<<(retries-1), backoffCap)
			t.tr.BrokerRetry(brokerLabel, t.seq, retries, backoff.Seconds(), reason)
			redispatch = time.After(backoff) // at most 50ms: no Stop needed
		case <-redispatch:
			redispatch = nil
			p.dispatch(t)
		}
	}
}

// dispatch leases one copy of t to the live session with the fewest
// outstanding leases (ties to the lowest id, so placement is a
// deterministic function of lease state) and writes its task frame.
// With no live session, or a failed send, it wakes the submitter to
// re-dispatch instead.
func (p *Pool) dispatch(t *task) {
	var remaining int64
	if dl, ok := t.ctx.Deadline(); ok {
		remaining = int64(dl.Sub(wallNow()))
		if remaining <= 0 {
			return // the submitter's own ctx.Done case fires next
		}
	}

	p.mu.Lock()
	var best *session
	for _, s := range p.sessions {
		if s.gone {
			continue
		}
		if best == nil || s.outstanding < best.outstanding ||
			(s.outstanding == best.outstanding && s.id < best.id) {
			best = s
		}
	}
	if best == nil {
		p.mu.Unlock()
		// Back off and retry rather than degrade inline at once: a worker
		// may be mid-reconnect, and an inline evaluation racing a worker's
		// replayed one would advance a stateful problem twice. Budget
		// exhaustion remains the inline last resort.
		t.wake("remote: no live worker session")
		return
	}
	t.dispatches++
	key := leaseKey{seq: t.seq, attempt: t.dispatches}
	best.outstanding++
	p.leases[key] = &lease{t: t, session: best.id, ticks: p.opt.LeaseTicks}
	sid, slabel, fc := best.id, best.label, best.fc
	p.mu.Unlock()

	t.tr.Lease(poolLabel, t.seq, sid, "grant")
	t.tr.SpanRoot(t.trace, t.seq, key.attempt)
	t.tr.Span(t.trace, "dispatch", t.seq, key.attempt, slabel, 0)
	t.tr.Span(t.trace, "lease", t.seq, key.attempt, slabel, 0)
	task := &TaskPayload{
		Seq:         t.seq,
		Problem:     t.p.Name(),
		Config:      t.c,
		Attempt:     key.attempt,
		RemainingNS: remaining,
		Trace:       t.trace.TraceID,
	}
	if err := fc.write(Frame{Type: MsgTask, Task: task}); err != nil {
		// The connection is going down; the read loop will reap the
		// session. Reclaim this lease now rather than waiting out its
		// ticks.
		p.reclaim(key, "dispatch send failed")
	}
}

// release removes one outstanding lease and returns it; ok is false when
// the lease was already settled, reclaimed, or cancelled.
func (p *Pool) release(key leaseKey) (l *lease, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok = p.leases[key]
	if ok {
		delete(p.leases, key)
		if s := p.sessions[l.session]; s != nil {
			s.outstanding--
		}
	}
	return l, ok
}

// reclaim expires one lease, if still outstanding, and wakes its
// submitter to re-dispatch.
func (p *Pool) reclaim(key leaseKey, reason string) {
	l, ok := p.release(key)
	if !ok {
		return
	}
	l.t.tr.Lease(poolLabel, key.seq, l.session, "expire")
	l.t.wake(reason)
}

// readLoop serves one session's inbound frames until the connection
// ends, then reaps the session.
func (p *Pool) readLoop(s *session) {
	graceful := false
	for {
		f, err := s.fc.read()
		if err != nil {
			break
		}
		p.mu.Lock()
		s.seen = true
		p.mu.Unlock()
		if f.Type == MsgBye {
			graceful = true
			break
		}
		if f.Type == MsgResult && f.Result != nil {
			p.handleResult(s, f.Result)
		}
	}
	p.reapSession(s, graceful)
}

// handleResult settles one inbound result against its lease and the
// task's claim guard.
func (p *Pool) handleResult(s *session, r *ResultPayload) {
	l, ok := p.release(leaseKey{seq: r.Seq, attempt: r.Attempt})
	if !ok {
		// Late (post-expiry) or duplicated result: the copy was already
		// reclaimed or settled. Charged to telemetry, never to the search.
		p.tr.Lease(poolLabel, r.Seq, s.id, "dup-result")
		return
	}
	t := l.t
	if r.Interrupted {
		// The worker could not complete the evaluation (cancelled
		// mid-flight, or it could not resolve the problem). Never settle
		// the task with a truncated outcome — re-dispatch it.
		detail := r.Err
		if detail == "" {
			detail = "worker interrupted"
		}
		t.wake("remote: " + detail)
		return
	}
	if !t.settle(outcomeFromWire(r)) {
		p.tr.Lease(poolLabel, r.Seq, s.id, "dup-result")
		// Another copy already won the claim: this copy's work was the
		// hedge's wasted half.
		if t.hedged.Load() {
			t.tr.Hedge(brokerLabel, t.seq, true)
		}
		t.tr.Span(t.trace, "hedge-loss", r.Seq, r.Attempt, s.label, 0)
		return
	}
	t.tr.Span(t.trace, "result", r.Seq, r.Attempt, s.label, 0)
}

// sortKeys orders lease keys by (seq, attempt), so reclaims replay in a
// deterministic order.
func sortKeys(keys []leaseKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].seq != keys[j].seq {
			return keys[i].seq < keys[j].seq
		}
		return keys[i].attempt < keys[j].attempt
	})
}

// reapSession removes a finished session and reclaims its leases.
func (p *Pool) reapSession(s *session, graceful bool) {
	p.mu.Lock()
	if s.gone {
		p.mu.Unlock()
		return
	}
	s.gone = true
	delete(p.sessions, s.id)
	closed := p.closed
	var orphans []leaseKey
	for key, l := range p.leases {
		if l.session == s.id {
			orphans = append(orphans, key)
		}
	}
	sortKeys(orphans)
	p.mu.Unlock()

	_ = s.fc.close()
	if !closed {
		state := "dead"
		if graceful {
			state = "closed"
		}
		p.tr.RemoteWorker(poolLabel, s.id, state)
	}
	for _, key := range orphans {
		p.reclaim(key, "worker connection lost")
	}
}

// monitorLoop is the failure detector and lease clock: one tick
// decrements every lease, charges every silent session a missed beat,
// and reaps sessions past the miss threshold. With an injected tick
// source every transition is deterministic in (frames, ticks).
func (p *Pool) monitorLoop() {
	defer p.wg.Done()
	ticks := p.opt.Ticks
	if ticks == nil {
		t := time.NewTicker(p.opt.TickEvery)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case <-p.stop:
			return
		case <-ticks:
			p.tick()
		}
	}
}

// tick advances the lease/heartbeat state machine once.
func (p *Pool) tick() {
	p.mu.Lock()
	var dead []*session
	var missed [][2]int // (session, consecutive misses)
	for _, s := range p.sessions {
		if s.gone {
			continue
		}
		if s.seen {
			s.seen = false
			s.missed = 0
			continue
		}
		s.missed++
		missed = append(missed, [2]int{s.id, s.missed})
		if s.missed >= p.opt.MaxMissedBeats {
			dead = append(dead, s)
		}
	}
	var cancelled, expired []leaseKey
	for key, l := range p.leases {
		if l.t.cancelled.Load() {
			cancelled = append(cancelled, key)
			continue
		}
		l.ticks--
		if l.ticks <= 0 {
			expired = append(expired, key)
		}
	}
	sortKeys(cancelled)
	sortKeys(expired)
	sort.Slice(missed, func(i, j int) bool { return missed[i][0] < missed[j][0] })
	sort.Slice(dead, func(i, j int) bool { return dead[i].id < dead[j].id })
	type cancel struct {
		seq int
		fc  *frameConn
	}
	var cancels []cancel
	for _, key := range cancelled {
		l := p.leases[key]
		delete(p.leases, key)
		if s := p.sessions[l.session]; s != nil {
			cancels = append(cancels, cancel{key.seq, s.fc})
			s.outstanding--
		}
	}
	p.mu.Unlock()

	for _, m := range missed {
		p.tr.HeartbeatMiss(poolLabel, m[0], m[1])
	}
	for _, c := range cancels {
		// Best effort: the submitter is gone either way.
		_ = c.fc.write(Frame{Type: MsgCancel, Seq: c.seq})
	}
	for _, key := range expired {
		p.reclaim(key, "lease expired")
	}
	for _, s := range dead {
		// reapSession reclaims the session's remaining leases; the read
		// loop exits on the closed conn and finds the session gone.
		p.reapSession(s, false)
	}
}
