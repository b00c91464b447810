// Package broker is the evaluation queue that remote workers serve: it
// turns inline Evaluate calls into queued tasks that an external
// dispatcher (internal/broker/remote) pulls with NextTask, ships to
// worker processes, and settles through the Task handle. It layers
// these robustness semantics between the search algorithms and the
// simulator:
//
//   - Bounded submission queue with backpressure: submitters block for
//     queue space; the queue never grows unboundedly.
//   - Deadline propagation, retry with capped backoff (Task.Fail), and
//     hedged re-dispatch for stragglers: the first completing copy wins
//     and the loser's work is charged to telemetry (hedge-wasted), never
//     to the result.
//   - Graceful degradation: while no dispatcher is attached, or once a
//     task's retry budget is exhausted, the broker evaluates inline on
//     the caller and marks Outcome.Degraded, so the search always
//     terminates with a full result.
//
// The headline invariant is bit-identical results: a claim guard
// settles each submitted task exactly once no matter how many copies —
// hedges, retries, inline fallbacks — race for it, and searches submit
// sequentially, so a brokered search produces the same Records, Result,
// and deterministic telemetry as the inline search
// (TestBrokerMatchesInline, TestRemoteMatchesInline). Dispatch faults
// can only move an evaluation between workers, never change what it
// returns.
//
// Wall-clock use (hedge timers, retry backoff, the liveness recheck) is
// deliberately confined to scheduling decisions whose observable effect
// is broker telemetry — the same contract KindWorkerTask documents for
// the pool engine.
package broker

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// queueDepth bounds the submission queue. Searches submit one
// evaluation at a time, so only concurrent searches sharing a broker
// (the experiments grid) ever fill it.
const queueDepth = 8

// interruptedOutcome is the sentinel outcome for a cancelled submission:
// Outcome.Interrupted() is true, so the search never records it.
func interruptedOutcome(err error) search.Outcome {
	return search.Outcome{RunTime: math.Inf(1), Status: search.StatusFailed, Err: err}
}

// Options configures a Broker. The zero value means: 2 re-dispatch
// retries with 1ms backoff capped at 50ms, hedging disabled.
type Options struct {
	// Retries bounds broker-level re-dispatches per task after dispatch
	// failures (0 → 2, negative → none). Exhausting the budget degrades
	// the task to inline execution rather than failing it.
	Retries int
	// Backoff is the base re-dispatch pause, growing as Backoff*2^k and
	// capped at BackoffCap (defaults 1ms / 50ms). Wall-clock only: it
	// paces recovery, it is never charged to the search clock.
	Backoff    time.Duration
	BackoffCap time.Duration
	// HedgeAfter re-enqueues a task still running after this long, so a
	// straggling worker cannot stall the search. 0 disables hedging.
	HedgeAfter time.Duration
	// Label names the broker in telemetry events (default "broker").
	Label string
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 50 * time.Millisecond
	}
	if o.Label == "" {
		o.Label = "broker"
	}
	return o
}

// Broker is the evaluation queue. Create with New, attach a dispatcher
// (remote.NewPool), evaluate through Evaluate (or wrap a Problem with
// Problem), and Close when done.
type Broker struct {
	opt    Options
	queue  chan *task
	closed chan struct{}
	once   sync.Once

	mu  sync.Mutex
	seq int // next task sequence number

	// dispatcherUp is the broker's health: a dispatcher guarantees the
	// queue drains (degrading tasks inline itself when it has no live
	// workers); without one, submitters evaluate inline.
	dispatcherUp atomic.Bool
}

// New returns a broker with an empty queue and no dispatcher attached:
// until one attaches, every submission evaluates inline.
func New(opt Options) *Broker {
	opt = opt.withDefaults()
	return &Broker{
		opt:    opt,
		queue:  make(chan *task, queueDepth),
		closed: make(chan struct{}),
	}
}

// Close stops serving the queue: the dispatcher's NextTask returns, and
// submitters complete their unclaimed tasks inline. Idempotent.
func (b *Broker) Close() {
	b.once.Do(func() { close(b.closed) })
}

// task is one brokered evaluation. The claim guard (mu/claimed) makes
// the task settle exactly once no matter how many copies — hedges,
// retries, inline fallbacks — race to execute it.
type task struct {
	seq   int
	p     search.Problem
	c     space.Config
	ctx   context.Context
	tr    *obs.Tracer
	trace obs.TraceContext
	done  chan struct{}

	mu       sync.Mutex
	claimed  bool
	finished bool
	out      search.Outcome

	dispatches atomic.Int32 // dispatch attempts (fault-roll key)
	retries    atomic.Int32 // broker-level re-dispatches consumed
	cancelled  atomic.Bool  // submitter gave up (ctx done)
	hedged     atomic.Bool  // a hedge copy was issued
}

// outcome returns the stored result after done is closed.
func (t *task) outcome() search.Outcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.out
}

// execute claims the task and evaluates it inline, on the calling
// goroutine, exactly once; a copy that loses the claim race returns
// immediately. degraded marks the outcome when the broker fell back to
// inline execution through a failure path.
func (t *task) execute(degraded bool) {
	attempt := int(t.dispatches.Load())
	t.mu.Lock()
	if t.claimed {
		t.mu.Unlock()
		return
	}
	t.claimed = true
	t.mu.Unlock()

	traced := t.tr.Enabled() && t.trace.Valid()
	var sw obs.Stopwatch
	if traced {
		sw = obs.StartTimer()
	}
	out := search.EvaluateFull(t.ctx, t.p, t.c)
	out.Degraded = out.Degraded || degraded
	if traced {
		t.tr.Span(t.trace, "worker-eval", t.seq, attempt, "inline", sw.Elapsed())
	}

	t.mu.Lock()
	t.out = out
	t.finished = true
	t.mu.Unlock()
	close(t.done)
	t.tr.Span(t.trace, "result", t.seq, attempt, "inline", 0)
}

// noDispatcher explains an inline degradation for telemetry.
const noDispatcher = "broker: no external dispatcher attached; evaluating inline"

// Evaluate submits one evaluation of c on p and blocks until a result is
// available. It implements the broker's full robustness pipeline; see
// the package comment. Context cancellation returns an Interrupted
// outcome immediately (an already-dispatched copy notices t.cancelled
// and is dropped).
func (b *Broker) Evaluate(ctx context.Context, p search.Problem, c space.Config) search.Outcome {
	if err := ctx.Err(); err != nil {
		return interruptedOutcome(err)
	}
	tr := obs.FromContext(ctx)
	t := &task{
		p: p, c: c, ctx: ctx, tr: tr,
		trace: obs.TraceFrom(ctx),
		done:  make(chan struct{}),
	}

	b.mu.Lock()
	t.seq = b.seq
	b.seq++
	b.mu.Unlock()

	// The task's anchor span (parent: the run root); every later stage of
	// this evaluation's causal chain hangs below it.
	tr.SpanRoot(t.trace, t.seq, -1)

	if !b.dispatcherUp.Load() {
		// Graceful degradation: nobody serves the queue, so evaluate
		// inline on the caller and mark the outcome.
		tr.Degraded(noDispatcher)
		t.execute(true)
		return t.outcome()
	}

	// Liveness recheck: the dispatcher check above races with the
	// dispatcher detaching AFTER this task is enqueued — leaving it in a
	// queue nobody consumes. The submitter therefore re-checks
	// periodically and claims the task inline (degraded) the moment no
	// dispatcher is attached; the claim guard makes this safe against
	// any copy that already took it.
	recheck := time.NewTicker(5 * time.Millisecond)
	defer recheck.Stop()

	// Submission with backpressure.
	depth := len(b.queue)
enqueue:
	for {
		select {
		case b.queue <- t:
			tr.Enqueue(b.opt.Label, t.seq, depth)
			tr.Span(t.trace, "enqueue", t.seq, 0, "", 0)
			break enqueue
		case <-ctx.Done():
			t.cancelled.Store(true)
			return interruptedOutcome(ctx.Err())
		case <-b.closed:
			t.execute(false)
			return t.outcome()
		case <-recheck.C:
			if !b.dispatcherUp.Load() {
				tr.Degraded(noDispatcher)
				t.execute(true)
				return t.outcome()
			}
		}
	}

	// Wait for completion, hedging stragglers.
	var hedge <-chan time.Time
	if b.opt.HedgeAfter > 0 {
		timer := time.NewTimer(b.opt.HedgeAfter)
		defer timer.Stop()
		hedge = timer.C
	}
	for {
		select {
		case <-t.done:
			return t.outcome()
		case <-ctx.Done():
			t.cancelled.Store(true)
			return interruptedOutcome(ctx.Err())
		case <-b.closed:
			// The queue is no longer served; make sure the task completes.
			// The claim guard makes this safe against a copy that already
			// took it.
			t.execute(false)
			select {
			case <-t.done:
				return t.outcome()
			case <-ctx.Done():
				t.cancelled.Store(true)
				return interruptedOutcome(ctx.Err())
			}
		case <-recheck.C:
			if !b.dispatcherUp.Load() {
				tr.Degraded(noDispatcher)
				t.execute(true)
				// execute either claimed (done is closed) or lost the race to
				// a copy that did — either way done closes; loop to collect.
			}
		case <-hedge:
			hedge = nil
			t.hedged.Store(true)
			tr.Hedge(b.opt.Label, t.seq, false)
			// Non-blocking re-enqueue: a full queue means the dispatcher is
			// behind, and a second copy queued behind the backlog could not
			// beat the original anyway.
			select {
			case b.queue <- t:
			default:
			}
		}
	}
}

// AttachDispatcher marks a dispatcher as serving the queue: submissions
// stop degrading inline and queue for the dispatcher instead.
// DetachDispatcher reverses it.
func (b *Broker) AttachDispatcher() { b.dispatcherUp.Store(true) }

// DetachDispatcher marks the dispatcher gone; later submissions degrade
// to inline execution.
func (b *Broker) DetachDispatcher() { b.dispatcherUp.Store(false) }

// redispatch routes a failed dispatch of t: re-enqueue with capped
// backoff while budget remains and a dispatcher is attached, else
// degrade to inline execution right here (the failing dispatch's
// goroutine), which guarantees termination.
func (b *Broker) redispatch(t *task, reason string) {
	if t.cancelled.Load() {
		return
	}
	attempt := int(t.retries.Add(1))
	if attempt > b.opt.Retries || !b.dispatcherUp.Load() {
		t.tr.Degraded("broker: retries exhausted or no healthy worker; evaluating inline")
		t.execute(true)
		return
	}
	backoff := b.opt.Backoff << (attempt - 1)
	if backoff > b.opt.BackoffCap {
		backoff = b.opt.BackoffCap
	}
	t.tr.BrokerRetry(b.opt.Label, t.seq, attempt, backoff.Seconds(), reason)
	timer := time.NewTimer(backoff)
	select {
	case <-timer.C:
	case <-t.ctx.Done():
		timer.Stop()
		return
	case <-b.closed:
		timer.Stop()
		t.execute(false)
		return
	}
	// Non-blocking re-enqueue: with the queue full blocking here could
	// deadlock the dispatcher, so fall back to inline-degraded execution
	// instead.
	select {
	case b.queue <- t:
	default:
		t.tr.Degraded("broker: queue full on re-dispatch; evaluating inline")
		t.execute(true)
	}
}
