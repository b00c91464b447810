package remote

import (
	"context"

	"repro/internal/search"
	"repro/internal/space"
)

// BrokeredProblem adapts a search.Problem so every evaluation routes
// through a Pool. It implements both Problem and FullEvaluator, so
// RS/RSp/RSb/SA, the opentuner ensemble, and journal wrapping all
// compose unchanged — the pool slots in as the outermost evaluation
// layer, exactly like Resilient slots in as the failure layer.
type BrokeredProblem struct {
	pool *Pool
	p    search.Problem
}

// Problem wraps prob so its evaluations are served by the pool.
func (p *Pool) Problem(prob search.Problem) *BrokeredProblem {
	return &BrokeredProblem{pool: p, p: prob}
}

// Name implements search.Problem.
func (bp *BrokeredProblem) Name() string { return bp.p.Name() }

// Space implements search.Problem.
func (bp *BrokeredProblem) Space() *space.Space { return bp.p.Space() }

// Evaluate implements search.Problem through search.EvaluateBackground;
// failures surface as a +Inf run time.
func (bp *BrokeredProblem) Evaluate(c space.Config) (runTime, cost float64) {
	return search.EvaluateBackground(bp, c)
}

// EvaluateFull implements search.FullEvaluator by submitting to the
// pool and blocking for the result.
func (bp *BrokeredProblem) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	return bp.pool.Evaluate(ctx, bp.p, c)
}

// ctxKey keys a shared pool in a context.
type ctxKey struct{}

// Into returns a context carrying pool, so layers that build problems
// deep inside a run (the experiments grid) can share one pool without
// new plumbing parameters.
func Into(ctx context.Context, pool *Pool) context.Context {
	return context.WithValue(ctx, ctxKey{}, pool)
}

// From returns the context's pool, or nil when none was attached.
func From(ctx context.Context) *Pool {
	pool, _ := ctx.Value(ctxKey{}).(*Pool)
	return pool
}

// Wrap routes p through the context's pool when one is attached and
// returns p unchanged otherwise — the one-line integration point for
// problem factories.
func Wrap(ctx context.Context, p search.Problem) search.Problem {
	if pool := From(ctx); pool != nil {
		return pool.Problem(p)
	}
	return p
}
