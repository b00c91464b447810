package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
)

// sortedOrder is the order RSb used to build: every pool index, sorted
// by (prediction, index).
func sortedOrder(preds []float64) []int32 {
	order := make([]int32, len(preds))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(preds[a], preds[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// tieHeavyPreds draws n predictions from a handful of distinct values.
func tieHeavyPreds(n, distinct int, r *rng.RNG) []float64 {
	preds := make([]float64, n)
	for i := range preds {
		preds[i] = float64(r.Intn(distinct)) * 0.25
	}
	return preds
}

// TestSmallestFirstMatchesSort: the bounded heap keeps exactly the
// first min(k, n) entries of the full sort by (prediction, index), on
// tie-heavy predictions, with k below, at and above n, and with NaN and
// infinite predictions ordered as cmp.Compare orders them; and so do
// 1 to 3 heaps offered interleaved runs of the entries and merged, as
// ScorePool's workers offer them. Each offered configuration is the
// one-level configuration {i}, overwritten after the offer, so the
// result also shows the heap copies what it keeps.
func TestSmallestFirstMatchesSort(t *testing.T) {
	r := rng.New(24)
	for _, n := range []int{0, 1, 2, 5, 64, 1000} {
		for _, distinct := range []int{1, 3, 50} {
			preds := tieHeavyPreds(n, distinct, r)
			if n >= 5 {
				preds[1], preds[3], preds[4] = math.NaN(), math.Inf(-1), math.Inf(1)
			}
			want := sortedOrder(preds)
			for _, k := range []int{0, 1, 2, 7, 100, n - 1, n, n + 5} {
				if k < 0 {
					continue
				}
				for heaps := 1; heaps <= 3; heaps++ {
					hs, c := make([]*smallestFirst, heaps), make(space.Config, 1)
					for w := range hs {
						hs[w] = newSmallestFirst(min(k, n))
					}
					for i, pred := range preds {
						c[0] = i
						hs[i/7%heaps].offer(pred, i, c)
						c[0] = -1
					}
					got := make([]int32, 0, min(k, n))
					for _, c := range mergeBest(hs, k) {
						got = append(got, int32(c[0]))
					}
					if !slices.Equal(got, want[:min(k, n)]) {
						t.Fatalf("n=%d distinct=%d k=%d heaps=%d: got %v, want %v", n, distinct, k, heaps, got, want[:min(k, n)])
					}
				}
			}
		}
	}
}

// stubModel predicts from a hash of the encoded configuration: one of
// distinct values, or now and then NaN or ±Inf, so a scored pool is
// tie-heavy and holds every kind of value cmp.Compare orders.
type stubModel struct{ distinct uint64 }

func (m stubModel) Predict(x []float64) float64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	switch h = rng.New(h).Uint64(); h % 32 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	}
	return float64(h/32%m.distinct) * 0.25
}

// materialisedPool is the oracle for ScorePool, the code it replaced:
// draw the whole pool with SamplePool, score every entry, and take the
// cutoff and a stable sort's prefix from the full arrays.
func materialisedPool(spc *space.Space, m Model, n, k int, deltaPct float64, r *rng.RNG) PoolScores {
	pool := spc.SamplePool(n, r)
	preds := make([]float64, len(pool))
	for i, c := range pool {
		preds[i] = m.Predict(spc.Encode(c))
	}
	best := make([]space.Config, min(k, len(pool)))
	for i, j := range stableOrder(preds)[:len(best)] {
		best[i] = pool[j]
	}
	return PoolScores{Drawn: len(pool), Cutoff: stats.Quantile(preds, deltaPct/100), Best: best}
}

// checkPoolScores compares a streamed pool with the oracle's bit for bit.
func checkPoolScores(t *testing.T, name string, got, want PoolScores) {
	t.Helper()
	if got.Drawn != want.Drawn || len(got.Best) != len(want.Best) {
		t.Fatalf("%s: drew %d and kept %d, want %d and %d", name, got.Drawn, len(got.Best), want.Drawn, len(want.Best))
	}
	if math.Float64bits(got.Cutoff) != math.Float64bits(want.Cutoff) {
		t.Fatalf("%s: cutoff %v, want %v", name, got.Cutoff, want.Cutoff)
	}
	for i, c := range got.Best {
		if !slices.Equal(c, want.Best[i]) {
			t.Fatalf("%s: best[%d] is %v, want %v", name, i, c, want.Best[i])
		}
	}
}

// poolTestSpaces returns a space too large to enumerate (wide: 645 120
// configurations), one of 24 configurations and one of 1000.
func poolTestSpaces() (wide, small, tiny *space.Space) {
	wide = space.New(
		space.NewIntRange("a", 0, 9), space.NewIntRange("b", 1, 4), space.NewPowerOfTwo("c", 0, 6),
		space.NewBoolean("d"), space.NewCategorical("e", "x", "y", "z"), space.NewIntRange("f", 0, 9),
		space.NewBoolean("g"), space.NewExplicit("h", 3, 5, 8, 13), space.NewIntRange("i", 0, 2),
	)
	small = space.New(space.NewIntRange("a", 0, 2), space.NewIntRange("b", 0, 3), space.NewBoolean("c"))
	tiny = space.New(space.NewIntRange("a", 0, 9), space.NewIntRange("b", 0, 9), space.NewIntRange("c", 0, 9))
	return wide, small, tiny
}

// TestScorePoolMatchesMaterialisedPool: the streamed pool draws, scores
// and selects exactly what the materialised pool did, for pool sizes
// around the block size and at the paper's N, for budgets from none to
// more than the pool, on a space too large to enumerate, on spaces no
// larger than the pool (the Enumerate path) and on a space the sampler
// drains into its exhaustive fallback; and the pool stream is left
// where SamplePool leaves it.
func TestScorePoolMatchesMaterialisedPool(t *testing.T) {
	const nmax = 100
	wide, small, tiny := poolTestSpaces()
	for _, tc := range []struct {
		name string
		spc  *space.Space
		ns   []int
	}{
		{"wide", wide, []int{0, 1, poolBlock - 1, poolBlock, poolBlock + 1, 3*poolBlock + 7, 10000}},
		{"small", small, []int{23, 24, 25, 100}},
		{"tiny", tiny, []int{999, 1000}},
	} {
		for _, n := range tc.ns {
			for _, k := range []int{0, 1, nmax, n, n + 50} {
				for _, delta := range []float64{1, 20, 99} {
					name := fmt.Sprintf("%s n=%d k=%d δ=%g", tc.name, n, k, delta)
					m := stubModel{distinct: 5}
					r1, r2 := rng.New(uint64(n)), rng.New(uint64(n))
					checkPoolScores(t, name, ScorePool(tc.spc, m, n, k, delta, r1), materialisedPool(tc.spc, m, n, k, delta, r2))
					if r1.Uint64() != r2.Uint64() {
						t.Fatalf("%s: the pool stream is not where SamplePool leaves it", name)
					}
				}
			}
		}
	}
}

// configStub is stubModel as a ConfigModel scoring on a given number of
// workers. Its scorer encodes into scratch of its own, which is what
// makes it single-goroutine, and yields now and then so the workers of
// one region interleave.
type configStub struct {
	stubModel
	workers int
}

func (m configStub) ConfigScorer(spc *space.Space) func(space.Config) float64 {
	x, calls := make([]float64, spc.NumParams()), 0
	return func(c space.Config) float64 {
		if calls++; calls%16 == 0 {
			runtime.Gosched()
		}
		spc.EncodeInto(x, c)
		return m.Predict(x)
	}
}

func (m configStub) Workers() int { return m.workers }

// TestScorePoolRegionMatchesMaterialisedPool: a ConfigModel's pool,
// scored in one parallel region of 1, 2, 3 or 8 workers, draws, scores
// and selects exactly what the materialised pool did: on a space too
// large to enumerate at pool sizes around the chunk size, on spaces the
// sampler nearly drains (so it rejects most late draws as duplicates),
// and on the Enumerate path, for budgets of none, one, NMax and the
// whole pool; and the pool stream is left where SamplePool leaves it.
func TestScorePoolRegionMatchesMaterialisedPool(t *testing.T) {
	const nmax = 100
	wide, small, tiny := poolTestSpaces()
	for _, tc := range []struct {
		name string
		spc  *space.Space
		ns   []int
	}{
		{"wide", wide, []int{1, poolChunk - 1, poolChunk, poolChunk + 1, 3*poolChunk + 7, 2000}},
		{"small", small, []int{23, 24, 100}},
		{"tiny", tiny, []int{900, 999, 1000}},
	} {
		for _, n := range tc.ns {
			for _, k := range []int{0, 1, nmax, n} {
				for _, workers := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("%s n=%d k=%d workers=%d", tc.name, n, k, workers)
					m := configStub{stubModel{distinct: 5}, workers}
					r1, r2 := rng.New(uint64(n)), rng.New(uint64(n))
					checkPoolScores(t, name, ScorePool(tc.spc, m, n, k, 20, r1), materialisedPool(tc.spc, m, n, k, 20, r2))
					if r1.Uint64() != r2.Uint64() {
						t.Fatalf("%s: the pool stream is not where SamplePool leaves it", name)
					}
				}
			}
		}
	}
}

// serialStub is stubModel with a Predict that fails the test when two
// calls overlap, like a model whose Predict is not safe for concurrent
// use (the benchmark's timing wrapper).
type serialStub struct {
	stubModel
	t        *testing.T
	inFlight *atomic.Int32
}

func (m serialStub) Predict(x []float64) float64 {
	if m.inFlight.Add(1) != 1 {
		m.t.Error("two Predict calls overlap")
	}
	defer m.inFlight.Add(-1)
	runtime.Gosched()
	return m.stubModel.Predict(x)
}

// serialBatchStub adds a PredictAll that must not overlap either.
type serialBatchStub struct{ serialStub }

func (m serialBatchStub) PredictAll(X [][]float64) []float64 {
	if m.inFlight.Add(1) != 1 {
		m.t.Error("two PredictAll calls overlap")
	}
	defer m.inFlight.Add(-1)
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.stubModel.Predict(x)
	}
	return out
}

// TestScorePoolScoresOtherModelsSerially: a model that is not a
// ConfigModel is never called from two goroutines at once, whether it
// scores row by row or in batches, and its pool is still the
// materialised one.
func TestScorePoolScoresOtherModelsSerially(t *testing.T) {
	wide, _, tiny := poolTestSpaces()
	for _, spc := range []*space.Space{wide, tiny} {
		for _, batch := range []bool{false, true} {
			var m Model = serialStub{stubModel{distinct: 5}, t, new(atomic.Int32)}
			if batch {
				m = serialBatchStub{m.(serialStub)}
			}
			name := fmt.Sprintf("size=%g batch=%v", spc.Size(), batch)
			checkPoolScores(t, name, ScorePool(spc, m, 3000, 100, 20, rng.New(4)), materialisedPool(spc, stubModel{distinct: 5}, 3000, 100, 20, rng.New(4)))
		}
	}
}

// cancelAfter cancels its context once it has evaluated n configurations.
type cancelAfter struct {
	*bowl
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Evaluate(cfg space.Config) (float64, float64) {
	run, cost := c.bowl.Evaluate(cfg)
	if c.bowl.evals == c.n {
		c.cancel()
	}
	return run, cost
}

// stableOrder is the oracle for ScorePool's Best: every pool index, in
// the order a stable sort by prediction alone leaves them (cmp.Less puts
// NaN first, as cmp.Compare does).
func stableOrder(preds []float64) []int {
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cmp.Less(preds[order[a]], preds[order[b]]) })
	return order
}

// TestPoolBestAndCutoffMatchOracles: on a tie-heavy pool with NaN and
// infinite predictions, Best for budget k is the prefix of a full stable
// sort of the predictions, for k below, at and above both the budget and
// the pool size, and Cutoff is stats.Quantile of the predictions at
// δ/100, bit for bit.
func TestPoolBestAndCutoffMatchOracles(t *testing.T) {
	const nmax = 100
	spc := newBowl().Space()
	pool := spc.SamplePool(400, rng.New(11))
	for _, distinct := range []uint64{1, 4, 50} {
		m := stubModel{distinct: distinct}
		preds := make([]float64, len(pool))
		for i, c := range pool {
			preds[i] = m.Predict(spc.Encode(c))
		}
		want := stableOrder(preds)
		for _, k := range []int{1, nmax - 1, nmax, len(pool), len(pool) + 50} {
			got := ScorePool(spc, m, len(pool), k, DefaultDeltaPct, rng.New(11)).Best
			if len(got) != min(k, len(pool)) {
				t.Fatalf("distinct=%d k=%d: %d configurations, want %d", distinct, k, len(got), min(k, len(pool)))
			}
			for i, c := range got {
				if c.Key() != pool[want[i]].Key() {
					t.Fatalf("distinct=%d k=%d: entry %d is %v, want pool[%d] %v", distinct, k, i, c, want[i], pool[want[i]])
				}
			}
		}
		for _, delta := range []float64{1, 20, 50, 99} {
			got, want := ScorePool(spc, m, len(pool), 0, delta, rng.New(11)).Cutoff, stats.Quantile(preds, delta/100)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("distinct=%d δ=%g: cutoff %v, want %v", distinct, delta, got, want)
			}
		}
	}
}

// TestRSbScoredEvaluatesSortedPrefix: RSb's target half, a Replay of the
// pool's Best, evaluates pool entries in the full sort's order, on a
// tie-heavy pool, whether the budget is below the pool size, equal to it
// or above it, and a run cancelled mid-way evaluates a prefix of the
// same sequence.
func TestRSbScoredEvaluatesSortedPrefix(t *testing.T) {
	spc := newBowl().Space()
	pool := spc.SamplePool(400, rng.New(5))
	m := stubModel{distinct: 4}
	preds := make([]float64, len(pool))
	for i, c := range pool {
		preds[i] = m.Predict(spc.Encode(c))
	}
	want := sortedOrder(preds)
	best := func(k int) []space.Config { return ScorePool(spc, m, len(pool), k, DefaultDeltaPct, rng.New(5)).Best }
	check := func(name string, res *Result, n int) {
		t.Helper()
		if res.Algorithm != "RSb" || len(res.Records) != n {
			t.Fatalf("%s: %s made %d evaluations, want RSb with %d", name, res.Algorithm, len(res.Records), n)
		}
		for i, rec := range res.Records {
			if rec.Config.Key() != pool[want[i]].Key() {
				t.Fatalf("%s: evaluation %d is pool entry %v, want %v", name, i, rec.Config, pool[want[i]])
			}
		}
	}
	for _, nmax := range []int{1, 37, len(pool), len(pool) + 50} {
		res := Replay(context.Background(), newBowl(), best(nmax), "RSb")
		check(fmt.Sprintf("nmax-%d", nmax), res, min(nmax, len(pool)))
	}
	for _, stop := range []int{1, 20} {
		ctx, cancel := context.WithCancel(context.Background())
		p := &cancelAfter{bowl: newBowl(), n: stop, cancel: cancel}
		res := Replay(ctx, p, best(100), "RSb")
		cancel()
		check(fmt.Sprintf("cancelled-after-%d", stop), res, stop)
	}
}

// oldRSbfOrder is the order RSbf's own evaluation loop used before it
// became a Replay: the indices of ta.Valid(), stably sorted by source
// run time.
func oldRSbfOrder(ta Dataset) []space.Config {
	ta = ta.Valid()
	order := make([]int, len(ta))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ta[order[a]].RunTime < ta[order[b]].RunTime })
	seq := make([]space.Config, len(order))
	for i, j := range order {
		seq[i] = ta[j].Config
	}
	return seq
}

// TestRSbfMatchesOldLoopOrder: RSbf evaluates T_a in the order its old
// loop did, on tie-heavy source times with non-finite and censored rows,
// and a cancelled run evaluates a prefix of that order.
func TestRSbfMatchesOldLoopOrder(t *testing.T) {
	r := rng.New(21)
	pool := newBowl().Space().SamplePool(150, rng.New(20))
	ta := make(Dataset, len(pool))
	for i, c := range pool {
		ta[i] = Sample{Config: c, RunTime: float64(r.Intn(5)), Censored: i%9 == 0}
	}
	ta[3].RunTime, ta[40].RunTime, ta[41].RunTime = math.NaN(), math.Inf(1), math.Inf(-1)
	want := oldRSbfOrder(ta)
	if len(want) != len(ta)-3 {
		t.Fatalf("oracle kept %d rows, want %d", len(want), len(ta)-3)
	}
	check := func(name string, res *Result, n int) {
		t.Helper()
		if res.Algorithm != "RSbf" || len(res.Records) != n {
			t.Fatalf("%s: %s made %d evaluations, want RSbf with %d", name, res.Algorithm, len(res.Records), n)
		}
		for i, rec := range res.Records {
			if rec.Config.Key() != want[i].Key() {
				t.Fatalf("%s: evaluation %d is %v, want %v", name, i, rec.Config, want[i])
			}
		}
	}
	check("full", RSbf(context.Background(), newBowl(), ta), len(want))
	ctx, cancel := context.WithCancel(context.Background())
	res := RSbf(ctx, &cancelAfter{bowl: newBowl(), n: 30, cancel: cancel}, ta)
	cancel()
	check("cancelled-after-30", res, 30)
}
