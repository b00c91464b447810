package remote

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/obs"
)

// PoolOptions configures a Pool. The zero value means: label "remote",
// leases of 20 monitor ticks, death after 4 consecutive silent ticks,
// a 25ms internal monitor tick, no transport faults, no tracing.
type PoolOptions struct {
	// Label names the pool in telemetry events.
	Label string
	// LeaseTicks is a dispatched task's lease, counted in monitor ticks;
	// when it reaches zero without a result the task is reclaimed and
	// re-dispatched through the broker's retry pipeline.
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
	// heartbeat misses, dup-results. Task-level lease events go to each
	// task's own tracer. nil → disabled.
	Tracer *obs.Tracer
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.Label == "" {
		o.Label = "remote"
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
	outstanding int  // leased tasks
	gone        bool // dead or closed; never dispatch to it again
}

// lease is one dispatched task awaiting its result.
type lease struct {
	h       *broker.Task
	session int
	ticks   int
	attempt int // dispatch ordinal the lease was granted for
}

// Pool is the broker's external dispatcher: it pulls queued tasks with
// Broker.NextTask, serves them to connected worker sessions with
// lease-based exactly-once accounting, detects dead workers by missed
// heartbeats, and degrades tasks inline when no live session exists —
// so the search always terminates, worker processes or not.
//
// Close order is flexible: closing the broker first drains the
// dispatch loop naturally; closing the pool first detaches it, and the
// broker's liveness recheck degrades still-queued tasks inline.
type Pool struct {
	b   *broker.Broker
	opt PoolOptions
	tr  *obs.Tracer

	mu       sync.Mutex
	nextID   int
	sessions map[int]*session
	leases   map[int]*lease
	closed   bool
	ln       net.Listener

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewPool attaches itself to b as the dispatcher and starts its
// dispatch and monitor loops. Connect workers with AddConn (pre-established connections,
// e.g. loopback pipes) or Serve (a listener). Close the pool when done.
func NewPool(b *broker.Broker, opt PoolOptions) *Pool {
	opt = opt.withDefaults()
	p := &Pool{
		b:        b,
		opt:      opt,
		tr:       opt.Tracer,
		sessions: map[int]*session{},
		leases:   map[int]*lease{},
		stop:     make(chan struct{}),
	}
	b.AttachDispatcher()
	p.wg.Add(2)
	go p.dispatchLoop()
	go p.monitorLoop()
	return p
}

// Close detaches the dispatcher, stops the loops, and closes every
// session (best-effort bye) and the listener, then waits for the
// goroutines to retire. Idempotent.
func (p *Pool) Close() {
	p.once.Do(func() {
		p.b.DetachDispatcher()
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
				p.tr.Warn(p.opt.Label, fmt.Sprintf("close session %d: %v", s.id, err))
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
				p.tr.Warn(p.opt.Label, "handshake: "+err.Error())
			}
		}
	}()
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
	//lint:ignore detflow liveness-only: the handshake deadline bounds a stalled dialer and never reaches task outcomes or wire payload bytes
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
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
	p.tr.RemoteWorker(p.opt.Label, id, "connected")

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

// dispatchLoop pulls queued tasks and serves them to sessions, inline
// when none is live.
func (p *Pool) dispatchLoop() {
	defer p.wg.Done()
	for {
		h, ok := p.b.NextTask(p.stop)
		if !ok {
			return
		}
		p.dispatch(h)
	}
}

// dispatch serves one task: lease it to the live session with the
// fewest outstanding tasks (ties to the lowest id, so placement is a
// deterministic function of lease state), or run it inline degraded
// when no session is live.
func (p *Pool) dispatch(h *broker.Task) {
	if h.Cancelled() || h.Settled() {
		return
	}
	seq := h.Seq()

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
		// No live session: route through the broker's retry pipeline
		// (capped backoff, bounded budget) rather than degrading inline
		// immediately — a worker may be mid-reconnect, and an inline
		// evaluation racing a worker's replayed one would advance a
		// stateful problem twice. Budget exhaustion remains the inline
		// last resort. On a fresh goroutine: the retry path sleeps its
		// backoff, and the dispatch loop must not stall on it.
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			h.Fail("remote: no live worker session")
		}()
		return
	}
	attempt := h.BeginDispatch()
	remaining := int64(0)
	if dl, ok := h.Deadline(); ok {
		remaining = int64(time.Until(dl))
		if remaining <= 0 {
			// Already past deadline; the submitter is about to bail via its
			// own context. Drop the dispatch.
			p.mu.Unlock()
			return
		}
	}
	best.outstanding++
	p.leases[seq] = &lease{h: h, session: best.id, ticks: p.opt.LeaseTicks, attempt: attempt}
	sid := best.id
	slabel := best.label
	fc := best.fc
	p.mu.Unlock()

	h.Tracer().Lease(p.opt.Label, seq, sid, "grant")
	tc := h.Trace()
	h.Tracer().SpanRoot(tc, seq, attempt)
	h.Tracer().Span(tc, "dispatch", seq, attempt, slabel, 0)
	h.Tracer().Span(tc, "lease", seq, attempt, slabel, 0)
	task := &TaskPayload{
		Seq:         seq,
		Problem:     h.ProblemName(),
		Config:      h.Config(),
		Attempt:     attempt,
		RemainingNS: remaining,
		Trace:       tc.TraceID,
	}
	if err := fc.write(Frame{Type: MsgTask, Task: task}); err != nil {
		// The connection is going down; the read loop will reap the
		// session. Reclaim this lease immediately rather than waiting
		// out its ticks.
		p.reclaim(seq, "dispatch send failed")
	}
}

// reclaim expires one lease (if still outstanding) and routes its task
// back through the broker's retry pipeline on a fresh goroutine — the
// retry path sleeps its backoff, and neither the monitor nor the
// dispatch loop may stall on it.
func (p *Pool) reclaim(seq int, reason string) {
	p.mu.Lock()
	l, ok := p.leases[seq]
	if ok {
		delete(p.leases, seq)
		if s := p.sessions[l.session]; s != nil {
			s.outstanding--
		}
	}
	p.mu.Unlock()
	if !ok {
		return
	}
	l.h.Tracer().Lease(p.opt.Label, seq, l.session, "expire")
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		l.h.Fail(reason)
	}()
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
// broker's claim guard.
func (p *Pool) handleResult(s *session, r *ResultPayload) {
	p.mu.Lock()
	l, ok := p.leases[r.Seq]
	if ok {
		delete(p.leases, r.Seq)
		if held := p.sessions[l.session]; held != nil {
			held.outstanding--
		}
	}
	p.mu.Unlock()

	if !ok {
		// Late (post-expiry) or duplicated result: the task was already
		// re-dispatched or settled. Charged to telemetry, never to the
		// search.
		p.tr.Lease(p.opt.Label, r.Seq, s.id, "dup-result")
		return
	}
	tc := l.h.Trace()
	attempt := r.Attempt
	if attempt == 0 {
		attempt = l.attempt
	}
	if r.Interrupted {
		// The worker could not complete the evaluation (cancelled
		// mid-flight, or it could not resolve the problem). Never settle
		// the task with a truncated outcome — re-dispatch it.
		detail := r.Err
		if detail == "" {
			detail = "worker interrupted"
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			l.h.Fail("remote: " + detail)
		}()
		return
	}
	if !l.h.Complete(outcomeFromWire(r)) {
		p.tr.Lease(p.opt.Label, r.Seq, s.id, "dup-result")
		// The claim was already taken: this copy's work was the hedge's
		// (or a reclaimed lease's) wasted half.
		l.h.Tracer().Span(tc, "hedge-loss", r.Seq, attempt, s.label, 0)
		return
	}
	l.h.Tracer().Span(tc, "result", r.Seq, attempt, s.label, 0)
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
	var orphans []int
	for seq, l := range p.leases {
		if l.session == s.id {
			orphans = append(orphans, seq)
		}
	}
	sort.Ints(orphans)
	p.mu.Unlock()

	_ = s.fc.close()
	if !closed {
		state := "dead"
		if graceful {
			state = "closed"
		}
		p.tr.RemoteWorker(p.opt.Label, s.id, state)
	}
	for _, seq := range orphans {
		p.reclaim(seq, "worker connection lost")
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
	var cancelled, expired []int
	for seq, l := range p.leases {
		if l.h.Cancelled() {
			cancelled = append(cancelled, seq)
			continue
		}
		l.ticks--
		if l.ticks <= 0 {
			expired = append(expired, seq)
		}
	}
	sort.Ints(cancelled)
	sort.Ints(expired)
	sort.Slice(missed, func(i, j int) bool { return missed[i][0] < missed[j][0] })
	sort.Slice(dead, func(i, j int) bool { return dead[i].id < dead[j].id })
	cancels := make(map[int]*frameConn)
	for _, seq := range cancelled {
		l := p.leases[seq]
		delete(p.leases, seq)
		if s := p.sessions[l.session]; s != nil {
			cancels[seq] = s.fc
			s.outstanding--
		}
	}
	p.mu.Unlock()

	for _, m := range missed {
		p.tr.HeartbeatMiss(p.opt.Label, m[0], m[1])
	}
	for seq, fc := range cancels {
		// Best effort: the submitter is gone either way.
		_ = fc.write(Frame{Type: MsgCancel, Seq: seq})
	}
	for _, seq := range expired {
		p.reclaim(seq, "lease expired")
	}
	for _, s := range dead {
		// reapSession reclaims the session's remaining leases; the read
		// loop exits on the closed conn and finds the session gone.
		p.reapSession(s, false)
	}
}
