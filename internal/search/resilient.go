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
// FallibleProblem is the failure-aware evaluation interface; Resilient
// wraps one with retry and timeout budgets (charged to the search clock)
// and reduces every attempt sequence to a single Outcome the search
// runner records. Infallible Problems adapt via Fallible, so every search
// algorithm runs unchanged on both kinds.

// FallibleProblem is an autotuning problem whose evaluations can fail.
// TryEvaluate returns a non-nil error when the configuration produced no
// measurement; the cost returned alongside an error is still charged to
// the search clock (the time burned compiling or crashing is real).
type FallibleProblem interface {
	Name() string
	Space() *space.Space
	TryEvaluate(c space.Config) (runTime, cost float64, err error)
}

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

// fallibleShim adapts an infallible Problem to FallibleProblem.
type fallibleShim struct{ p Problem }

func (s *fallibleShim) Name() string        { return s.p.Name() }
func (s *fallibleShim) Space() *space.Space { return s.p.Space() }
func (s *fallibleShim) TryEvaluate(c space.Config) (float64, float64, error) {
	run, cost := s.p.Evaluate(c)
	return run, cost, nil
}

// Fallible adapts a Problem to the fallible interface. Problems that
// already implement FallibleProblem are returned unchanged.
func Fallible(p Problem) FallibleProblem {
	if fp, ok := p.(FallibleProblem); ok {
		return fp
	}
	return &fallibleShim{p: p}
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
// status. The search runner uses it when a Problem implements it;
// Resilient is the canonical implementation.
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

// Resilient evaluates a fallible problem under bounded retries and a
// timeout cap. It implements both Problem and FullEvaluator, so every
// search algorithm in this package (and the opentuner ensemble) can run
// on it unchanged while their Results carry per-record status.
type Resilient struct {
	P   FallibleProblem
	Opt ResilientOptions
}

// NewResilient wraps p with the given budgets (zero value = defaults).
func NewResilient(p FallibleProblem, opt ResilientOptions) *Resilient {
	return &Resilient{P: p, Opt: opt.withDefaults()}
}

// Name implements Problem.
func (r *Resilient) Name() string { return r.P.Name() }

// Space implements Problem.
func (r *Resilient) Space() *space.Space { return r.P.Space() }

// Evaluate implements Problem for consumers that predate the failure
// path: failed evaluations surface as a +Inf run time.
func (r *Resilient) Evaluate(c space.Config) (runTime, cost float64) {
	//lint:ignore ctxflow legacy Problem bridge: the interface has no ctx to thread; the context path is EvaluateFull
	out := r.EvaluateFull(context.Background(), c)
	return out.RunTime, out.Cost
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
		if err := ctx.Err(); err != nil {
			tr.Timeout(r.P.Name(), err)
			return interrupted(err, total)
		}
		run, cost, err := r.P.TryEvaluate(c)
		if err == nil {
			if opt.Timeout > 0 && run > opt.Timeout {
				// The run is killed at the cap: charge only the time
				// actually spent (compile + capped run), record the cap.
				tr.Censor(r.P.Name(), c, run, opt.Timeout)
				total += cost - (run - opt.Timeout)
				return Outcome{RunTime: opt.Timeout, Cost: total,
					Status: StatusCensored, Retries: attempt}
			}
			total += cost
			return Outcome{RunTime: run, Cost: total, Status: StatusOK, Retries: attempt}
		}
		total += cost
		tr.Fault(r.P.Name(), c, attempt, err)
		if !IsTransient(err) || attempt >= opt.Retries {
			return Outcome{RunTime: math.Inf(1), Cost: total,
				Status: StatusFailed, Retries: attempt, Err: err}
		}
		backoff := opt.Backoff * math.Pow(2, float64(attempt))
		tr.Retry(r.P.Name(), c, attempt, backoff, err)
		total += backoff
	}
}
