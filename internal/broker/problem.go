package broker

import (
	"context"

	"repro/internal/search"
	"repro/internal/space"
)

// BrokeredProblem adapts a search.Problem so every evaluation routes
// through a Broker. It implements both Problem and FullEvaluator, so
// RS/RSp/RSb/SA, the opentuner ensemble, and journal wrapping all
// compose unchanged — the broker slots in as the outermost evaluation
// layer, exactly like Resilient slots in as the failure layer.
type BrokeredProblem struct {
	b *Broker
	p search.Problem
}

// Problem wraps p so its evaluations are served by the broker.
func (b *Broker) Problem(p search.Problem) *BrokeredProblem {
	return &BrokeredProblem{b: b, p: p}
}

// Name implements search.Problem.
func (bp *BrokeredProblem) Name() string { return bp.p.Name() }

// Space implements search.Problem.
func (bp *BrokeredProblem) Space() *space.Space { return bp.p.Space() }

// Unwrap exposes the underlying problem for layer-peeling diagnostics.
func (bp *BrokeredProblem) Unwrap() search.Problem { return bp.p }

// Evaluate implements search.Problem for consumers that predate the
// context path; failures surface as a +Inf run time.
func (bp *BrokeredProblem) Evaluate(c space.Config) (runTime, cost float64) {
	//lint:ignore ctxflow legacy Problem bridge: the interface has no ctx to thread; the context path is EvaluateFull
	out := bp.EvaluateFull(context.Background(), c)
	return out.RunTime, out.Cost
}

// EvaluateFull implements search.FullEvaluator by submitting to the
// broker and blocking for the result.
func (bp *BrokeredProblem) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	return bp.b.Evaluate(ctx, bp.p, c)
}

// ctxKey keys a shared broker in a context.
type ctxKey struct{}

// Into returns a context carrying b, so layers that build problems deep
// inside a run (the experiments grid) can share one broker without new
// plumbing parameters.
func Into(ctx context.Context, b *Broker) context.Context {
	return context.WithValue(ctx, ctxKey{}, b)
}

// From returns the context's broker, or nil when none was attached.
func From(ctx context.Context) *Broker {
	b, _ := ctx.Value(ctxKey{}).(*Broker)
	return b
}

// Wrap routes p through the context's broker when one is attached and
// returns p unchanged otherwise — the one-line integration point for
// problem factories.
func Wrap(ctx context.Context, p search.Problem) search.Problem {
	if b := From(ctx); b != nil {
		return b.Problem(p)
	}
	return p
}
