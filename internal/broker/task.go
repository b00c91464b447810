package broker

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// Task is the dispatcher's handle on one queued evaluation. The
// dispatcher pulls tasks with NextTask, ships them to remote workers,
// and settles each one through Complete or Fail. The handle shares the
// underlying claim guard with the broker's own inline fallbacks, so
// duplicate deliveries, lease reclaims, and inline degradation all race
// for a single claim: the underlying problem's outcome is recorded
// exactly once per submission no matter how many copies return.
type Task struct {
	b *Broker
	t *task
}

// NextTask blocks until a queued task is available and returns it, or
// returns ok=false when the broker is closed or stop is closed
// (submitters then finish their own tasks inline via the liveness
// recheck). The same underlying task can be returned again after a
// hedged or retried re-enqueue; the claim guard makes the duplicate
// harmless.
func (b *Broker) NextTask(stop <-chan struct{}) (*Task, bool) {
	select {
	case t := <-b.queue:
		return &Task{b: b, t: t}, true
	case <-b.closed:
		return nil, false
	case <-stop:
		return nil, false
	}
}

// Seq is the task's broker-wide submission sequence number.
func (h *Task) Seq() int { return h.t.seq }

// ProblemName names the problem the task evaluates; remote workers
// resolve it to their local instance of the same problem.
func (h *Task) ProblemName() string { return h.t.p.Name() }

// Config returns a copy of the configuration to evaluate.
func (h *Task) Config() space.Config {
	c := make(space.Config, len(h.t.c))
	copy(c, h.t.c)
	return c
}

// Context is the submitting caller's context; its deadline propagates
// across the wire and its cancellation abandons the task.
func (h *Task) Context() context.Context { return h.t.ctx }

// Cancelled reports whether the submitter gave up (context done); a
// dispatcher should drop cancelled tasks without charging a worker.
func (h *Task) Cancelled() bool { return h.t.cancelled.Load() }

// Deadline exposes the submission context's deadline for wire
// propagation.
func (h *Task) Deadline() (time.Time, bool) { return h.t.ctx.Deadline() }

// Settled reports whether the task already has its outcome (another
// copy won the claim); a dispatcher should drop settled tasks it pulls
// from a hedged or retried re-enqueue.
func (h *Task) Settled() bool {
	h.t.mu.Lock()
	defer h.t.mu.Unlock()
	return h.t.finished
}

// BeginDispatch records one dispatch attempt and returns its ordinal
// (1-based). The ordinal keys deterministic fault rolls.
func (h *Task) BeginDispatch() int { return int(h.t.dispatches.Add(1)) }

// Tracer is the submission's tracer; dispatcher events about this task
// (lease grants, reclaims) belong on it.
func (h *Task) Tracer() *obs.Tracer { return h.t.tr }

// Trace is the submission's trace context. The dispatcher propagates
// its TraceID across the wire so worker-side spans join the same causal
// chain; span ids themselves are re-derived from (seq, attempt) on the
// far side.
func (h *Task) Trace() obs.TraceContext { return h.t.trace }

// Complete settles the task with a remotely produced outcome. It
// reports whether this outcome won the claim: false means another copy
// (a duplicate delivery, a reclaimed lease's re-dispatch, or an inline
// fallback) already settled the task and out was discarded — the
// caller should charge the loss to telemetry, never to the result. A
// losing copy of a hedged task is the hedge's wasted half, and is
// charged here as one hedge-wasted event.
func (h *Task) Complete(out search.Outcome) bool {
	t := h.t
	t.mu.Lock()
	if t.claimed {
		t.mu.Unlock()
		if t.hedged.Load() {
			t.tr.Hedge(h.b.opt.Label, t.seq, true)
		}
		return false
	}
	t.claimed = true
	t.out = out
	t.finished = true
	t.mu.Unlock()
	close(t.done)
	return true
}

// Fail routes a failed dispatch (dead worker, expired lease) through
// the broker's retry pipeline: re-enqueue with capped backoff while
// budget remains, else degrade to inline execution. reason labels the
// retry in telemetry.
func (h *Task) Fail(reason string) { h.b.redispatch(h.t, reason) }
