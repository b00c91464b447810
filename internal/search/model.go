package search

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
)

// Model predicts the run time of an encoded configuration. A fitted
// *forest.Forest satisfies it.
//
// Goroutine-safety contract: Predict must be safe for concurrent calls
// from multiple goroutines — implementations may not mutate shared state
// while predicting. Every in-tree model (forest.Forest, core.Surrogate,
// core.KNNModel, core.LinearModel) is an immutable fitted artifact whose
// Predict only reads it; this is what lets parallel experiment cells
// share one model and lets PredictAll shard rows over workers. The
// contract is pinned by -race hammer tests in forest and core.
type Model interface {
	Predict(x []float64) float64
}

// BatchModel is the optional batched extension of Model. PredictAll
// must return exactly what calling Predict on each row would — the
// batch is a performance path (forest.Forest shards it over workers),
// never a semantic one.
type BatchModel interface {
	Model
	PredictAll(X [][]float64) []float64
}

// predictAll scores every row of X with m, through the batched path
// when the model provides one and row-by-row otherwise. Either way the
// result is bit-identical to a serial Predict loop.
func predictAll(m Model, X [][]float64) []float64 {
	if bm, ok := m.(BatchModel); ok {
		return bm.PredictAll(X)
	}
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// ScoredPool is the prelude RSp and RSb share: the configuration pool
// X_p of Algorithms 1 and 2 and the model's prediction for each entry
// (Preds[i] scores Pool[i]). The searches only read it, so one scored
// pool may serve any number of runs, concurrently too.
type ScoredPool struct {
	Pool  []space.Config
	Preds []float64
}

// ScorePool draws n configurations of spc from poolR (SamplePool), encodes
// them and scores every row with m.
func ScorePool(spc *space.Space, m Model, n int, poolR *rng.RNG) ScoredPool {
	pool := spc.SamplePool(n, poolR)
	return ScoredPool{Pool: pool, Preds: predictAll(m, spc.EncodeAll(pool))}
}

// DefaultDeltaPct is the paper's pruning-cutoff quantile percentage.
const DefaultDeltaPct = 20

// NormalizeDeltaPct validates a pruning-cutoff quantile percentage. A
// zero value is the "unset" sentinel and quietly takes the paper's
// default; any other value outside (0, 100) — including NaN, which
// slips past naive range checks — is replaced by the default with
// adjusted=true, so callers can emit a warning instead of rewriting the
// parameter silently. RSp, RSpf, and core.Options all validate through
// this one function.
func NormalizeDeltaPct(d float64) (pct float64, adjusted bool) {
	if d == 0 {
		return DefaultDeltaPct, false
	}
	if math.IsNaN(d) || d <= 0 || d >= 100 {
		return DefaultDeltaPct, true
	}
	return d, false
}

// timedModel wraps a Model and accumulates the wall time its Predict
// calls take. The model-guided searches install it only when tracing is
// enabled, so the untraced scoring loop calls the model directly with
// zero overhead. Wall time never feeds back into the search: it is an
// observation about the harness, not a simulated quantity.
//
// Unlike the models it wraps, timedModel is intentionally NOT safe for
// concurrent use (the counters are plain fields): each search run owns
// its wrapper and calls it from one goroutine.
type timedModel struct {
	m   Model
	n   int
	dur time.Duration
}

// Predict implements Model.
func (tm *timedModel) Predict(x []float64) float64 {
	sw := obs.StartTimer()
	v := tm.m.Predict(x)
	tm.dur += sw.Elapsed()
	tm.n++
	return v
}

// PredictAll implements BatchModel by forwarding to the wrapped model's
// batched path, counting one call per row so a traced run reports the
// same prediction count a row-by-row loop would.
func (tm *timedModel) PredictAll(X [][]float64) []float64 {
	sw := obs.StartTimer()
	out := predictAll(tm.m, X)
	tm.dur += sw.Elapsed()
	tm.n += len(X)
	return out
}

// flush emits the accumulated calls as one model-predict event for the
// named phase and resets the counters.
func (tm *timedModel) flush(tr *obs.Tracer, algo, phase string) {
	tr.ModelPredict(algo, phase, tm.n, tm.dur)
	tm.n, tm.dur = 0, 0
}

// timed installs a timedModel over m when tr is enabled; otherwise it
// returns m itself and a nil wrapper.
func timed(tr *obs.Tracer, m Model) (Model, *timedModel) {
	if !tr.Enabled() {
		return m, nil
	}
	tm := &timedModel{m: m}
	return tm, tm
}

// tracedScorePool is ScorePool reporting the scoring as algo's one
// "pool-score" model-predict event of n rows when ctx carries a tracer.
func tracedScorePool(ctx context.Context, algo string, spc *space.Space, m Model, n int, poolR *rng.RNG) ScoredPool {
	tr := obs.FromContext(ctx)
	scorer, tm := timed(tr, m)
	sp := ScorePool(spc, scorer, n, poolR)
	if tm != nil {
		tm.flush(tr, algo, "pool-score")
	}
	return sp
}

// RSpOptions configures random search with the pruning strategy
// (Algorithm 1).
type RSpOptions struct {
	// NMax is the evaluation budget (paper: 100).
	NMax int
	// PoolSize is N, the number of random configurations whose predicted
	// run times define the cutoff (paper: 10,000).
	PoolSize int
	// DeltaPct is the cutoff quantile percentage 0 < delta < 100
	// (paper: 20).
	DeltaPct float64
}

func (o RSpOptions) withDefaults() RSpOptions {
	if o.NMax <= 0 {
		o.NMax = 100
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 10000
	}
	o.DeltaPct, _ = NormalizeDeltaPct(o.DeltaPct)
	return o
}

// RSp is random search with the pruning strategy (Algorithm 1): sample
// configurations uniformly at random without replacement, predict each
// with the surrogate model m (fit on another machine's data), and
// evaluate only those whose prediction beats the delta-quantile cutoff
// computed over a fresh random pool.
//
// The candidate stream is drawn from r, so seeding r identically to a
// plain RS run makes RSp consider the same configurations in the same
// order and merely skip some — the paper's common-random-numbers setup.
// The pool is drawn from poolR and scored with m (ScorePool).
func RSp(ctx context.Context, p Problem, m Model, opt RSpOptions, r, poolR *rng.RNG) *Result {
	sp := tracedScorePool(ctx, "RSp", p.Space(), m, opt.withDefaults().PoolSize, poolR)
	return RSpScored(ctx, p, m, sp, opt, r)
}

// RSpScored is RSp over a pool drawn and scored beforehand (ScorePool):
// the cutoff is the DeltaPct quantile of sp.Preds and opt.PoolSize is
// unused. Given the pool RSp would draw from poolR with the same model,
// it returns exactly what RSp returns.
func RSpScored(ctx context.Context, p Problem, m Model, sp ScoredPool, opt RSpOptions, r *rng.RNG) *Result {
	origDelta := opt.DeltaPct
	_, adjusted := NormalizeDeltaPct(origDelta)
	opt = opt.withDefaults()
	spc := p.Space()
	run := newRunner(p, "RSp")
	run.start(ctx)
	defer run.finish()
	if adjusted {
		run.tr.Warn("RSp", fmt.Sprintf("deltaPct %g outside (0,100); using default %g", origDelta, opt.DeltaPct))
	}
	scorer, tm := timed(run.tr, m)
	cutoff := stats.Quantile(sp.Preds, opt.DeltaPct/100)
	if tm != nil {
		defer tm.flush(run.tr, "RSp", "scan")
	}

	// At most 100*NMax candidates are examined, evaluated or skipped, so
	// an over-aggressive cutoff cannot loop forever.
	sampler := space.NewSampler(spc, r)
	considered := 0
	for len(run.res.Records) < opt.NMax && considered < 100*opt.NMax && ctx.Err() == nil {
		c, ok := sampler.Next()
		if !ok {
			break
		}
		considered++
		if pred := scorer.Predict(spc.Encode(c)); pred < cutoff {
			if _, ok := run.evaluate(ctx, c); !ok {
				break
			}
		} else {
			run.skip(considered-1, c, pred, cutoff)
		}
	}
	return run.res
}

// RSbOptions configures random search with the biasing strategy
// (Algorithm 2).
type RSbOptions struct {
	// NMax is the evaluation budget (paper: 100).
	NMax int
	// PoolSize is N, the candidate pool size (paper: 10,000).
	PoolSize int
}

func (o RSbOptions) withDefaults() RSbOptions {
	if o.NMax <= 0 {
		o.NMax = 100
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 10000
	}
	return o
}

// RSb is random search with the biasing strategy (Algorithm 2): draw a
// pool of PoolSize random configurations, then repeatedly evaluate the
// pool configuration with the smallest predicted run time, removing it
// from the pool.
func RSb(ctx context.Context, p Problem, m Model, opt RSbOptions, poolR *rng.RNG) *Result {
	sp := tracedScorePool(ctx, "RSb", p.Space(), m, opt.withDefaults().PoolSize, poolR)
	return RSbScored(ctx, p, sp, opt)
}

// RSbScored is RSb over a pool drawn and scored beforehand (ScorePool);
// opt.PoolSize is unused. Given the pool RSb would draw from poolR with
// the same model, it returns exactly what RSb returns.
func RSbScored(ctx context.Context, p Problem, sp ScoredPool, opt RSbOptions) *Result {
	opt = opt.withDefaults()
	run := newRunner(p, "RSb")
	run.start(ctx)
	defer run.finish()

	type scored struct {
		c    space.Config
		pred float64
	}
	scoredPool := make([]scored, len(sp.Pool))
	for i, c := range sp.Pool {
		scoredPool[i] = scored{c: c, pred: sp.Preds[i]}
	}
	// Evaluating in ascending predicted order is equivalent to repeatedly
	// taking the argmin and removing it (the model is fixed). The sort
	// runs on this copy, so a shared pool stays untouched.
	sort.SliceStable(scoredPool, func(a, b int) bool {
		//lint:ignore floatcmp predictions are means of finite training targets (forest fits on Dataset.Valid rows), so the pool is NaN-free
		return scoredPool[a].pred < scoredPool[b].pred
	})
	for i := 0; i < len(scoredPool) && len(run.res.Records) < opt.NMax && ctx.Err() == nil; i++ {
		if _, ok := run.evaluate(ctx, scoredPool[i].c); !ok {
			break
		}
	}
	return run.res
}

// RSpf is the model-free pruning control: it computes the cutoff from the
// source machine's measured run times and replays the source
// configurations in their original order, skipping those whose *source*
// run time missed the cutoff. The search is therefore restricted to the
// configurations of Ta.
func RSpf(ctx context.Context, p Problem, ta Dataset, deltaPct float64) *Result {
	// Same validation as RSp (via RSpOptions): out-of-range values warn
	// and take the default instead of being rewritten silently.
	origDelta := deltaPct
	deltaPct, adjusted := NormalizeDeltaPct(deltaPct)
	run := newRunner(p, "RSpf")
	run.start(ctx)
	defer run.finish()
	if adjusted {
		run.tr.Warn("RSpf", fmt.Sprintf("deltaPct %g outside (0,100); using default %g", origDelta, deltaPct))
	}
	ta = ta.Valid()
	if len(ta) == 0 {
		return run.res
	}
	ys := make([]float64, len(ta))
	for i, s := range ta {
		ys[i] = s.RunTime
	}
	cutoff := stats.Quantile(ys, deltaPct/100)
	for i, s := range ta {
		if ctx.Err() != nil {
			break
		}
		if s.RunTime < cutoff {
			if _, ok := run.evaluate(ctx, s.Config); !ok {
				break
			}
		} else {
			run.skip(i, s.Config, s.RunTime, cutoff)
		}
	}
	return run.res
}

// RSbf is the model-free biasing control: it sorts Ta ascending by the
// source run times and evaluates the configurations in that order.
// Censored source rows sort by their caps, which places them with the
// slow configurations they almost certainly are.
func RSbf(ctx context.Context, p Problem, ta Dataset) *Result {
	run := newRunner(p, "RSbf")
	run.start(ctx)
	defer run.finish()
	ta = ta.Valid()
	order := make([]int, len(ta))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		//lint:ignore floatcmp ta.Valid() above dropped every non-finite run time
		return ta[order[a]].RunTime < ta[order[b]].RunTime
	})
	for _, i := range order {
		if ctx.Err() != nil {
			break
		}
		if _, ok := run.evaluate(ctx, ta[i].Config); !ok {
			break
		}
	}
	return run.res
}

// RSbA is the active-learning refinement of the biasing strategy
// (following the surrogate-refinement idea of Balaprakash et al., cited
// as the basis for the paper's model choice): the search starts from the
// source-trained model and periodically refits it on the union of the
// source data and the target observations gathered so far, so the
// surrogate adapts to the target machine during the search.
//
// refit is called with the combined dataset and must return the new
// model; refitEvery controls the cadence (default: every 10
// evaluations).
func RSbA(ctx context.Context, p Problem, initial Model, ta Dataset, opt RSbOptions, refitEvery int,
	refit func(Dataset) (Model, error), poolR *rng.RNG) (*Result, error) {

	opt = opt.withDefaults()
	if refitEvery <= 0 {
		refitEvery = 10
	}
	spc := p.Space()
	run := newRunner(p, "RSbA")
	run.start(ctx)
	defer run.finish()

	model := initial
	observed := append(Dataset{}, ta...)

	// One timed wrapper spans every refit generation: its inner model is
	// swapped in place so the per-call latency metric covers the whole run.
	scorer, tm := timed(run.tr, model)
	if tm != nil {
		defer tm.flush(run.tr, "RSbA", "scan")
	}

	// Encodings travel with the pool entries so each refit generation can
	// re-score the remaining configurations in one batch.
	remaining := spc.SamplePool(opt.PoolSize, poolR)
	enc := spc.EncodeAll(remaining)
	preds := predictAll(scorer, enc)
	for gen := 0; len(run.res.Records) < opt.NMax && len(remaining) > 0 && ctx.Err() == nil; gen++ {
		// Pick the argmin-predicted configuration from the remaining pool.
		// Batched scoring plus a strict-< scan reproduces the serial
		// Predict loop's choice exactly (first minimum wins in both).
		if gen > 0 {
			preds = predictAll(scorer, enc)
		}
		best := 0
		bestPred := preds[0]
		for i := 1; i < len(preds); i++ {
			if preds[i] < bestPred {
				best, bestPred = i, preds[i]
			}
		}
		c := remaining[best]
		remaining[best] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		enc[best] = enc[len(enc)-1]
		enc = enc[:len(enc)-1]

		rec, ok := run.evaluate(ctx, c)
		if !ok {
			break
		}
		// Failed evaluations contribute no training signal; censored ones
		// enter at the cap, a usable lower bound for ranking.
		if rec.Status != StatusFailed {
			observed = append(observed, Sample{
				Config: rec.Config, RunTime: rec.RunTime,
				Censored: rec.Status == StatusCensored,
			})
		}

		if len(run.res.Records)%refitEvery == 0 {
			var sw obs.Stopwatch
			if run.tr.Enabled() {
				sw = obs.StartTimer()
			}
			m, err := refit(observed)
			if err != nil {
				return nil, err
			}
			if run.tr.Enabled() {
				run.tr.ModelFit("RSbA-refit", len(observed), sw.Elapsed())
			}
			model = m
			if tm != nil {
				tm.m = model
			} else {
				scorer = model
			}
		}
	}
	return run.res, nil
}
