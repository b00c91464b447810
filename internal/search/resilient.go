package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/space"
)

// Failure semantics. Real autotuning evaluations fail: configurations
// that do not compile, runs that crash, runs that exceed a time cap.
// The evaluation stack has two contracts. A bare Problem (a kernel, a
// mini-app, a test problem) only measures. A layer is a Problem that
// also implements FullEvaluator and reaches the layer below only
// through EvaluateFull(ctx, inner, c), so cancellation, the tracer and
// the trace id ride the context from the search down to the simulator,
// and a failed attempt travels up as an Outcome whose Err says what
// went wrong. A layer's context-free Evaluate is the one shared bridge,
// EvaluateBackground. Resilient is the layer that turns failed attempts
// into retries, censored runs and failed records.

// transientError marks an evaluation error as worth retrying (a crash or
// flaky measurement, as opposed to a deterministic compile failure).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err to mark it retryable. Fault sources (e.g.
// internal/faults) use it to distinguish crashes from compile failures.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Outcome is the reduced result of one (possibly retried) evaluation.
type Outcome struct {
	// RunTime is the measurement; the timeout cap for censored outcomes;
	// +Inf for failed ones.
	RunTime float64
	// Cost is the total search-clock charge: every attempt's compile and
	// run cost plus the retry backoff.
	Cost    float64
	Status  Status
	Retries int
	// Err is the final attempt's error for failed outcomes, nil otherwise.
	Err error
	// Degraded marks an outcome produced through a graceful-degradation
	// path (e.g. the evaluation broker falling back to inline execution
	// when no remote worker can take the task). The measurement itself is
	// untouched — degradation changes where the evaluation ran, never
	// what it returned — so Records deliberately do not carry the flag
	// and degraded runs stay bit-identical to healthy ones.
	Degraded bool
}

// ErrAborted marks an evaluator-initiated abort: the evaluation layer
// (e.g. a journal whose disk write failed, or a replay that detected a
// divergence) wants the search to stop immediately without recording
// anything. Wrap it with %w; Outcome.Interrupted treats it like a
// context cancellation.
var ErrAborted = errors.New("search: evaluation aborted")

// Interrupted reports that the evaluation was cut short — by context
// cancellation or an evaluator abort — rather than completed.
// Interrupted outcomes carry no usable measurement and must not be
// recorded: a record produced by a truncated attempt sequence would
// differ from the one an uninterrupted run produces, breaking bit-exact
// resumption.
func (o Outcome) Interrupted() bool {
	return errors.Is(o.Err, context.Canceled) ||
		errors.Is(o.Err, context.DeadlineExceeded) ||
		errors.Is(o.Err, ErrAborted)
}

// interrupted builds the sentinel outcome for a cancelled evaluation.
func interrupted(err error, cost float64) Outcome {
	return Outcome{RunTime: math.Inf(1), Cost: cost, Status: StatusFailed, Err: err}
}

// FullEvaluator exposes complete evaluation outcomes including failure
// status. A Problem that implements it is an evaluation layer: the
// search runner calls it with the search's context, and it reaches the
// problem below only through EvaluateFull.
type FullEvaluator interface {
	EvaluateFull(ctx context.Context, c space.Config) Outcome
}

// EvaluateFull evaluates c with full failure semantics when p supports
// them, and adapts a plain Evaluate otherwise (flagging a non-finite run
// time as failed rather than letting it poison downstream minima). A
// cancelled ctx yields an Interrupted outcome without evaluating.
func EvaluateFull(ctx context.Context, p Problem, c space.Config) Outcome {
	if err := ctx.Err(); err != nil {
		return interrupted(err, 0)
	}
	if fe, ok := p.(FullEvaluator); ok {
		return fe.EvaluateFull(ctx, c)
	}
	run, cost := p.Evaluate(c)
	if math.IsNaN(run) || math.IsInf(run, 0) {
		err := fmt.Errorf("search: non-finite run time %v", run)
		obs.FromContext(ctx).Fault(p.Name(), c, 0, err)
		return Outcome{RunTime: math.Inf(1), Cost: cost, Status: StatusFailed, Err: err}
	}
	return Outcome{RunTime: run, Cost: cost, Status: StatusOK}
}

// EvaluateBackground is the context-free Evaluate of every evaluation
// layer: EvaluateFull under context.Background, reduced to the run time
// (+Inf for a failed evaluation) and the search-clock cost. It exists
// for callers outside the context path; searches call EvaluateFull.
func EvaluateBackground(p Problem, c space.Config) (runTime, cost float64) {
	//lint:ignore ctxflow legacy Problem bridge: the interface has no ctx to thread; the context path is EvaluateFull
	out := EvaluateFull(context.Background(), p, c)
	return out.RunTime, out.Cost
}

// ResilientOptions are the retry and timeout budgets of a Resilient
// evaluator.
type ResilientOptions struct {
	// Retries is the maximum number of extra attempts after a transient
	// failure (default 2; negative disables retries). Non-transient
	// failures are never retried.
	Retries int
	// Timeout is the per-evaluation run-time cap in simulated seconds.
	// A run exceeding it is killed at the cap and recorded as censored.
	// 0 disables censoring.
	Timeout float64
	// Backoff is the pause charged to the search clock before retry k,
	// growing as Backoff*2^k (default 1s). A real harness waits before
	// re-running a crashed measurement; the clock must see that time.
	Backoff float64
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 1
	}
	return o
}

// Resilient is the retry and timeout layer over any Problem. A
// failed attempt is an inner outcome with a non-nil Err; IsTransient
// errors are retried. Resilient implements both Problem and
// FullEvaluator, so every search algorithm in this package (and the
// opentuner ensemble) runs on it unchanged while their Results carry
// per-record status.
type Resilient struct {
	P   Problem
	Opt ResilientOptions
}

// NewResilient wraps p with the given budgets (zero value = defaults).
func NewResilient(p Problem, opt ResilientOptions) *Resilient {
	return &Resilient{P: p, Opt: opt.withDefaults()}
}

// Name implements Problem.
func (r *Resilient) Name() string { return r.P.Name() }

// Space implements Problem.
func (r *Resilient) Space() *space.Space { return r.P.Space() }

// Evaluate implements Problem through EvaluateBackground.
func (r *Resilient) Evaluate(c space.Config) (runTime, cost float64) {
	return EvaluateBackground(r, c)
}

// EvaluateFull implements FullEvaluator: attempt the evaluation, retry
// transient failures within the budget (backoff charged to the clock),
// and censor run times at the timeout cap. Cancelling ctx stops the
// attempt sequence at the next attempt boundary with an Interrupted
// outcome (never a recorded failure), so a drained search stays a
// bit-exact prefix of the uninterrupted one.
func (r *Resilient) EvaluateFull(ctx context.Context, c space.Config) Outcome {
	opt := r.Opt.withDefaults()
	tr := obs.FromContext(ctx)
	total := 0.0
	for attempt := 0; ; attempt++ {
		out := EvaluateFull(ctx, r.P, c)
		switch {
		case out.Interrupted():
			tr.Timeout(r.P.Name(), out.Err)
			return interrupted(out.Err, total+out.Cost)
		case out.Err == nil && opt.Timeout > 0 && out.RunTime > opt.Timeout:
			// The run is killed at the cap: charge only the time actually
			// spent (compile + capped run), record the cap.
			tr.Censor(r.P.Name(), c, out.RunTime, opt.Timeout)
			total += out.Cost - (out.RunTime - opt.Timeout)
			return Outcome{RunTime: opt.Timeout, Cost: total,
				Status: StatusCensored, Retries: attempt}
		case out.Err == nil:
			total += out.Cost
			return Outcome{RunTime: out.RunTime, Cost: total, Status: StatusOK, Retries: attempt}
		}
		total += out.Cost
		tr.Fault(r.P.Name(), c, attempt, out.Err)
		if !IsTransient(out.Err) || attempt >= opt.Retries {
			return Outcome{RunTime: math.Inf(1), Cost: total,
				Status: StatusFailed, Retries: attempt, Err: out.Err}
		}
		backoff := opt.Backoff * math.Pow(2, float64(attempt))
		tr.Retry(r.P.Name(), c, attempt, backoff, out.Err)
		total += backoff
	}
}
