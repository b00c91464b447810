package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
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

// ConfigModel is the optional extension of Model that scores
// configurations straight from their level indices. PredictConfigs must
// return exactly what Predict returns on spc.Encode(c) for every c of
// cs, and so must the function ConfigScorer returns, called on one c at
// a time: like BatchModel, both are performance paths (core.Surrogate
// scores through a forest compiled against its space), never semantic
// ones. The function ConfigScorer returns may keep scratch between
// calls, so it belongs to the one goroutine that asked for it.
type ConfigModel interface {
	Model
	PredictConfigs(spc *space.Space, cs []space.Config) []float64
	ConfigScorer(spc *space.Space) func(space.Config) float64
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

// ScoreConfigs returns m's prediction for every configuration of cs
// under spc's encoding: through PredictConfigs when m is a ConfigModel,
// and by encoding cs and scoring the rows otherwise. Either way
// out[i] == m.Predict(spc.Encode(cs[i])), bit for bit.
func ScoreConfigs(m Model, spc *space.Space, cs []space.Config) []float64 {
	if cm, ok := m.(ConfigModel); ok {
		return cm.PredictConfigs(spc, cs)
	}
	return predictAll(m, spc.EncodeAll(cs))
}

// configScorer returns a function scoring one configuration of spc at a
// time with m: m's own ConfigScorer when m is a ConfigModel, and
// m.Predict(spc.Encode(c)) otherwise. Either way f(c) ==
// m.Predict(spc.Encode(c)), bit for bit. A scan that scores one
// candidate at a time resolves its scorer once, here.
func configScorer(m Model, spc *space.Space) func(space.Config) float64 {
	if cm, ok := m.(ConfigModel); ok {
		return cm.ConfigScorer(spc)
	}
	return func(c space.Config) float64 { return m.Predict(spc.Encode(c)) }
}

// ScoredPool is the configuration pool X_p of Algorithms 1 and 2 and the
// model's prediction for each entry (Preds[i] scores Pool[i]). RSp reads
// only its Cutoff and RSb only its Best configurations, so a caller that
// serves many runs keeps those two and drops the pool.
type ScoredPool struct {
	Pool  []space.Config
	Preds []float64
}

// ScorePool draws n configurations of spc from poolR (SamplePool) and
// scores every one with m (ScoreConfigs).
func ScorePool(spc *space.Space, m Model, n int, poolR *rng.RNG) ScoredPool {
	pool := spc.SamplePool(n, poolR)
	return ScoredPool{Pool: pool, Preds: ScoreConfigs(m, spc, pool)}
}

// Cutoff is RSp's Δ: the deltaPct quantile of the pool's predictions.
func (sp ScoredPool) Cutoff(deltaPct float64) float64 {
	return stats.Quantile(sp.Preds, deltaPct/100)
}

// Best returns the min(k, len(Pool)) configurations with the smallest
// predictions, in (prediction, index) order: RSb's evaluation sequence.
func (sp ScoredPool) Best(k int) []space.Config {
	order := smallestFirst(sp.Preds, k)
	best := make([]space.Config, len(order))
	for i, j := range order {
		best[i] = sp.Pool[j]
	}
	return best
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
	sw := obs.StartTimer()
	sp := ScorePool(p.Space(), m, opt.withDefaults().PoolSize, poolR)
	obs.FromContext(ctx).ModelPredict("RSp", "pool-score", len(sp.Pool), sw.Elapsed())
	return RSpScored(ctx, p, m, sp.Cutoff(opt.withDefaults().DeltaPct), opt, r)
}

// RSpScored is RSp with its cutoff Δ given (ScoredPool.Cutoff);
// opt.PoolSize is unused. Given the cutoff of the pool RSp would draw
// from poolR with the same model, it returns exactly what RSp returns.
func RSpScored(ctx context.Context, p Problem, m Model, cutoff float64, opt RSpOptions, r *rng.RNG) *Result {
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
	score := configScorer(m, spc)
	if run.tr.Enabled() {
		// Count and time every candidate scored, reported as one event
		// when the run ends. Untraced runs call the scorer directly.
		inner, n, dur := score, 0, time.Duration(0)
		score = func(c space.Config) float64 {
			sw := obs.StartTimer()
			v := inner(c)
			n, dur = n+1, dur+sw.Elapsed()
			return v
		}
		defer func() { run.tr.ModelPredict("RSp", "scan", n, dur) }()
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
		if pred := score(c); pred < cutoff {
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
// pool of PoolSize random configurations and evaluate them in ascending
// predicted run time, which, the model being fixed, is a Replay of the
// pool's NMax Best configurations.
func RSb(ctx context.Context, p Problem, m Model, opt RSbOptions, poolR *rng.RNG) *Result {
	opt = opt.withDefaults()
	sw := obs.StartTimer()
	sp := ScorePool(p.Space(), m, opt.PoolSize, poolR)
	obs.FromContext(ctx).ModelPredict("RSb", "pool-score", len(sp.Pool), sw.Elapsed())
	return Replay(ctx, p, sp.Best(opt.NMax), "RSb")
}

// smallestFirst returns the indices of the min(k, len(preds)) smallest
// predictions in ascending order. Ties go to the lower index: (pred,
// index) is a total order, so the result is the prefix of the stable
// sort of all indices by prediction. It keeps the k best seen so far in
// a max-heap, so the cost is O(n log k) rather than a sort of all n, and
// it reads preds only, so a shared pool stays untouched.
func smallestFirst(preds []float64, k int) []int32 {
	order := func(a, b int32) int {
		if c := cmp.Compare(preds[a], preds[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	// heap[0] is the largest of the kept indices; siftDown restores that
	// below position i.
	heap := make([]int32, 0, min(k, len(preds)))
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && order(heap[c+1], heap[c]) > 0 {
				c++
			}
			if order(heap[c], heap[i]) <= 0 {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := range preds {
		switch {
		case len(heap) < cap(heap):
			heap = append(heap, int32(i))
			for j := len(heap) - 1; j > 0 && order(heap[j], heap[(j-1)/2]) > 0; j = (j - 1) / 2 {
				heap[j], heap[(j-1)/2] = heap[(j-1)/2], heap[j]
			}
		case len(heap) > 0 && order(int32(i), heap[0]) < 0:
			heap[0] = int32(i)
			siftDown(0)
		}
	}
	slices.SortFunc(heap, order)
	return heap
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
// source run times and Replays the configurations in that order.
// Censored source rows sort by their caps, which places them with the
// slow configurations they almost certainly are.
func RSbf(ctx context.Context, p Problem, ta Dataset) *Result {
	ta = ta.Valid() // a new slice, with every non-finite run time dropped
	slices.SortStableFunc(ta, func(a, b Sample) int { return cmp.Compare(a.RunTime, b.RunTime) })
	seq := make([]space.Config, len(ta))
	for i, s := range ta {
		seq[i] = s.Config
	}
	return Replay(ctx, p, seq, "RSbf")
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

	// Every generation's scoring adds to one model-predict event, so the
	// per-call latency metric covers the whole run.
	var scored int
	var scoreDur time.Duration
	defer func() { run.tr.ModelPredict("RSbA", "scan", scored, scoreDur) }()

	// The remaining pool is scored once per model generation (preds is
	// nil until then); between refits the predictions travel with their
	// entries, since re-scoring under the same model would repeat them.
	remaining := spc.SamplePool(opt.PoolSize, poolR)
	var preds []float64
	for len(run.res.Records) < opt.NMax && len(remaining) > 0 && ctx.Err() == nil {
		if preds == nil {
			sw := obs.StartTimer()
			preds = ScoreConfigs(model, spc, remaining)
			scored, scoreDur = scored+len(remaining), scoreDur+sw.Elapsed()
		}
		// Pick the argmin-predicted configuration from the remaining pool.
		// Batched scoring plus a strict-< scan reproduces the serial
		// Predict loop's choice exactly (first minimum wins in both).
		best := 0
		bestPred := preds[0]
		for i := 1; i < len(preds); i++ {
			if preds[i] < bestPred {
				best, bestPred = i, preds[i]
			}
		}
		c := remaining[best]
		last := len(remaining) - 1
		remaining[best], preds[best] = remaining[last], preds[last]
		remaining, preds = remaining[:last], preds[:last]

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
			preds = nil
		}
	}
	return run.res, nil
}
