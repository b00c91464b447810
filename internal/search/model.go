package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
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
// contract is pinned by -race hammer tests in forest and core. Neither
// Predict nor PredictAll may keep x or a row of X past the call: the
// pool scorer encodes every block into the same reused rows.
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
// configurations straight from their level indices. The function
// ConfigScorer returns must return exactly what Predict returns on
// spc.Encode(c): like BatchModel, it is a performance path (core.Surrogate
// scores through a forest compiled against its space), never a semantic
// one. It may keep scratch between calls, so it belongs to the one
// goroutine that asked for it. Workers bounds the goroutines that score
// at once, each through its own ConfigScorer, when ScoreConfigs scores a
// batch or ScorePool a pool; <= 0 means one per CPU.
type ConfigModel interface {
	Model
	ConfigScorer(spc *space.Space) func(space.Config) float64
	Workers() int
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
// under spc's encoding. A ConfigModel shards cs over min(m.Workers(),
// len(cs)) goroutines, each scoring its rows through its own
// ConfigScorer and writing disjoint indices of the output; any other
// model scores the encoded rows. Either way out[i] ==
// m.Predict(spc.Encode(cs[i])), bit for bit, whatever the worker count.
func ScoreConfigs(m Model, spc *space.Space, cs []space.Config) []float64 {
	cm, ok := m.(ConfigModel)
	if !ok {
		return predictAll(m, spc.EncodeAll(cs))
	}
	out := make([]float64, len(cs))
	workers := min(parallel.Workers(cm.Workers()), len(cs))
	parallel.Do(workers, workers, func(s int) {
		lo, hi := parallel.Shard(len(cs), workers, s)
		score := cm.ConfigScorer(spc)
		for i := lo; i < hi; i++ {
			out[i] = score(cs[i])
		}
	})
	return out
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

// poolBlock is how many pool configurations ScorePool draws, encodes and
// scores at a time for a model that is not a ConfigModel.
const poolBlock = 512

// poolChunk is how many pool configurations a ScorePool worker draws at
// a time for a ConfigModel: small enough that the workers share the pool
// evenly, large enough that they rarely wait on the draw's lock.
const poolChunk = 64

// PoolScores is what RSp and RSb read of the scored configuration pool
// X_p of Algorithms 1 and 2; the pool itself is never kept.
type PoolScores struct {
	// Drawn is the pool's size: n, or the space's size when that is
	// smaller.
	Drawn int
	// Cutoff is RSp's Δ: the deltaPct quantile of the pool's predictions.
	Cutoff float64
	// Best is the min(k, Drawn) pool configurations with the smallest
	// predictions, in (prediction, index) order: RSb's evaluation
	// sequence.
	Best []space.Config
}

// ScorePool draws the pool spc.SamplePool(n, poolR) would return, with
// the same draws, and scores every configuration with m. It streams the
// pool, never holding it whole: each prediction is stored at the
// configuration's pool index for the Cutoff, and each configuration is
// offered under that index to a bounded heap of the k best. Memory is
// O(n) predictions and sampler keys (about a byte per level) plus O(k)
// configurations per scoring goroutine and a chunk's levels.
//
// A ConfigModel scores the pool in one parallel region of m.Workers()
// goroutines: each in turn draws the next poolChunk configurations
// under one lock, in the serial draw order, then scores them with its
// own ConfigScorer and keeps its own heap; the heaps are merged at the
// end. Any other model is scored on the calling goroutine, poolBlock
// configurations at a time encoded into one reused set of rows, because
// its Predict may not be safe to call from two goroutines at once (the
// benchmark's timing wrapper is not). Each prediction depends on its
// configuration alone and (prediction, index) is a total order, so
// either way the result is the materialised pool's, bit for bit.
func ScorePool(spc *space.Space, m Model, n, k int, deltaPct float64, poolR *rng.RNG) PoolScores {
	d := &poolDraw{size: max(n, 0)}
	if float64(n) >= spc.Size() {
		// A pool as large as the space is the whole space in mixed-radix
		// order (SamplePool), and such a space is small.
		d.all = spc.Enumerate()
		d.size = len(d.all)
	} else {
		d.sm = space.NewSampler(spc, poolR)
		d.sm.Reserve(d.size)
	}
	preds := make([]float64, d.size)
	k = min(k, d.size)
	var heaps []*smallestFirst
	if cm, ok := m.(ConfigModel); ok {
		heaps = scoreRegion(spc, cm, d, preds, k)
	} else {
		heaps = []*smallestFirst{scoreBlocks(spc, m, d, preds, k)}
	}
	return PoolScores{Drawn: d.size, Cutoff: stats.QuantileInPlace(preds, deltaPct/100), Best: mergeBest(heaps, k)}
}

// poolDraw hands out a pool's configurations in pool order: the
// enumerated space, or a sampler's draws. It is not safe for concurrent
// use.
type poolDraw struct {
	size, drawn int
	all         []space.Config // the whole space, when the pool is all of it
	sm          *space.Sampler
}

// next returns the pool's next up to n configurations, with the pool
// index of the first: a slice of the enumerated space, or the sampler's
// draws into the first of buf's configurations (buf from d.buffer). The
// slice is empty once the pool is drawn.
func (d *poolDraw) next(n int, buf []space.Config) ([]space.Config, int) {
	start := d.drawn
	n = min(n, d.size-start)
	d.drawn += n
	if d.all != nil {
		return d.all[start : start+n], start
	}
	for _, c := range buf[:n] {
		// Never false: size < spc.Size() configurations in all.
		d.sm.NextInto(c)
	}
	return buf[:n], start
}

// buffer returns what next needs to draw up to n configurations at a
// time: n configurations of spc sharing one backing array, or nil for
// an enumerated pool.
func (d *poolDraw) buffer(spc *space.Space, n int) []space.Config {
	if d.all != nil {
		return nil
	}
	np := spc.NumParams()
	levels := make([]int, n*np)
	buf := make([]space.Config, n)
	for i := range buf {
		buf[i] = levels[i*np : (i+1)*np : (i+1)*np]
	}
	return buf
}

// scoreRegion scores the whole pool of d with cm in one parallel region
// (see ScorePool) and returns each worker's heap of its k best.
func scoreRegion(spc *space.Space, cm ConfigModel, d *poolDraw, preds []float64, k int) []*smallestFirst {
	workers := min(parallel.Workers(cm.Workers()), max(1, (d.size+poolChunk-1)/poolChunk))
	heaps := make([]*smallestFirst, workers)
	var mu sync.Mutex
	parallel.Do(workers, workers, func(w int) {
		score, best, buf := cm.ConfigScorer(spc), newSmallestFirst(k), d.buffer(spc, poolChunk)
		for {
			mu.Lock()
			chunk, start := d.next(poolChunk, buf)
			mu.Unlock()
			if len(chunk) == 0 {
				break
			}
			for i, c := range chunk {
				pred := score(c)
				preds[start+i] = pred
				best.offer(pred, start+i, c)
			}
		}
		heaps[w] = best
	})
	return heaps
}

// scoreBlocks scores the whole pool of d with m on the calling
// goroutine, a block at a time encoded into one reused set of rows, and
// returns the heap of its k best.
func scoreBlocks(spc *space.Space, m Model, d *poolDraw, preds []float64, k int) *smallestFirst {
	np, rows := spc.NumParams(), min(poolBlock, d.size)
	buf := d.buffer(spc, rows)
	flat := make([]float64, rows*np)
	X := make([][]float64, rows)
	for i := range X {
		X[i] = flat[i*np : (i+1)*np : (i+1)*np]
	}
	best := newSmallestFirst(k)
	for {
		block, start := d.next(rows, buf)
		if len(block) == 0 {
			return best
		}
		for i, c := range block {
			spc.EncodeInto(X[i], c)
		}
		for i, pred := range predictAll(m, X[:len(block)]) {
			preds[start+i] = pred
			best.offer(pred, start+i, block[i])
		}
	}
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
	d := opt.withDefaults()
	sp := ScorePool(p.Space(), m, d.PoolSize, 0, d.DeltaPct, poolR)
	obs.FromContext(ctx).ModelPredict("RSp", "pool-score", sp.Drawn, sw.Elapsed())
	return RSpScored(ctx, p, m, sp.Cutoff, opt, r)
}

// RSpScored is RSp with its cutoff Δ given (PoolScores.Cutoff);
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
	c := make(space.Config, spc.NumParams()) // evaluate copies what it keeps
	considered := 0
	for len(run.res.Records) < opt.NMax && considered < 100*opt.NMax && ctx.Err() == nil {
		if !sampler.NextInto(c) {
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
	sp := ScorePool(p.Space(), m, opt.PoolSize, opt.NMax, DefaultDeltaPct, poolR)
	obs.FromContext(ctx).ModelPredict("RSb", "pool-score", sp.Drawn, sw.Elapsed())
	return Replay(ctx, p, sp.Best, "RSb")
}

// smallestFirst keeps the k configurations with the smallest
// predictions offered so far, in a max-heap by (prediction, index). Ties
// go to the lower index: (prediction, index) is a total order
// (cmp.Compare puts NaN first), so the result is the prefix of the
// stable sort of every offered configuration by prediction, whatever
// order they were offered in. Selecting from n costs O(n log k). The
// heap owns at most k copies of configurations: a configuration is
// copied only when it enters the heap, into an evicted configuration's
// copy once the heap is full.
type smallestFirst struct {
	heap []rankedConfig // heap[0] is the largest kept
}

// rankedConfig is a configuration in the heap, its prediction and its
// index in the pool.
type rankedConfig struct {
	pred float64
	idx  int
	c    space.Config
}

func newSmallestFirst(k int) *smallestFirst {
	return &smallestFirst{heap: make([]rankedConfig, 0, k)}
}

func compareRanked(a, b rankedConfig) int {
	if c := cmp.Compare(a.pred, b.pred); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// offer considers c, with prediction pred, under the index idx; no two
// offers to one heap share an index. The heap keeps no reference to c.
func (h *smallestFirst) offer(pred float64, idx int, c space.Config) {
	e := rankedConfig{pred: pred, idx: idx}
	switch {
	case len(h.heap) < cap(h.heap):
		e.c = slices.Clone(c)
		h.heap = append(h.heap, e)
		for j := len(h.heap) - 1; j > 0 && compareRanked(h.heap[j], h.heap[(j-1)/2]) > 0; j = (j - 1) / 2 {
			h.heap[j], h.heap[(j-1)/2] = h.heap[(j-1)/2], h.heap[j]
		}
	case len(h.heap) > 0 && compareRanked(e, h.heap[0]) < 0:
		e.c = h.heap[0].c
		copy(e.c, c)
		h.heap[0] = e
		for i := 0; ; {
			j := 2*i + 1
			if j >= len(h.heap) {
				break
			}
			if j+1 < len(h.heap) && compareRanked(h.heap[j+1], h.heap[j]) > 0 {
				j++
			}
			if compareRanked(h.heap[j], h.heap[i]) <= 0 {
				break
			}
			h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
			i = j
		}
	}
}

// mergeBest returns the k configurations with the smallest (prediction,
// index) kept by any of hs, in ascending order. Heaps offered disjoint
// parts of one pool, each keeping its own k best, together keep the
// pool's k best.
func mergeBest(hs []*smallestFirst, k int) []space.Config {
	var all []rankedConfig
	for _, h := range hs {
		all = append(all, h.heap...)
	}
	slices.SortFunc(all, compareRanked)
	out := make([]space.Config, min(k, len(all)))
	for i := range out {
		out[i] = all[i].c
	}
	return out
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
