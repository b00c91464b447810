package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
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

// TestSmallestFirstMatchesSort: the bounded selection returns exactly the
// first min(k, n) indices of the full sort by (prediction, index), on
// tie-heavy predictions, with k below, at and above n, and with NaN and
// infinite predictions ordered as cmp.Compare orders them.
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
				got := smallestFirst(preds, k)
				if !slices.Equal(got, want[:min(k, n)]) {
					t.Fatalf("n=%d distinct=%d k=%d: got %v, want %v", n, distinct, k, got, want[:min(k, n)])
				}
			}
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

// stableOrder is the oracle for ScoredPool.Best: every pool index, in
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
// infinite predictions, Best(k) is the prefix of a full stable sort, for
// k below, at and above both the budget and the pool size, and Cutoff is
// stats.Quantile of the predictions at δ/100, bit for bit.
func TestPoolBestAndCutoffMatchOracles(t *testing.T) {
	const nmax = 100
	pool := newBowl().Space().SamplePool(400, rng.New(11))
	for _, distinct := range []int{1, 4, 50} {
		sp := ScoredPool{Pool: pool, Preds: tieHeavyPreds(len(pool), distinct, rng.New(12))}
		sp.Preds[7], sp.Preds[90], sp.Preds[91], sp.Preds[300] = math.NaN(), math.Inf(-1), math.Inf(1), math.NaN()
		want := stableOrder(sp.Preds)
		for _, k := range []int{1, nmax - 1, nmax, len(pool), len(pool) + 50} {
			got := sp.Best(k)
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
			got, want := sp.Cutoff(delta), stats.Quantile(sp.Preds, delta/100)
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
	sp := ScoredPool{Pool: pool, Preds: tieHeavyPreds(len(pool), 4, rng.New(6))}
	want := sortedOrder(sp.Preds)
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
		res := Replay(context.Background(), newBowl(), sp.Best(nmax), "RSb")
		check(fmt.Sprintf("nmax-%d", nmax), res, min(nmax, len(pool)))
	}
	for _, stop := range []int{1, 20} {
		ctx, cancel := context.WithCancel(context.Background())
		p := &cancelAfter{bowl: newBowl(), n: stop, cancel: cancel}
		res := Replay(ctx, p, sp.Best(100), "RSb")
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
