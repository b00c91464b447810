package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
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

// TestRSbScoredEvaluatesSortedPrefix: RSbScored evaluates pool entries in
// the full sort's order, on a tie-heavy pool, whether the budget is
// below the pool size, equal to it or above it, and a run cancelled
// mid-way evaluates a prefix of the same sequence.
func TestRSbScoredEvaluatesSortedPrefix(t *testing.T) {
	spc := newBowl().Space()
	pool := spc.SamplePool(400, rng.New(5))
	sp := ScoredPool{Pool: pool, Preds: tieHeavyPreds(len(pool), 4, rng.New(6))}
	want := sortedOrder(sp.Preds)
	check := func(name string, res *Result, n int) {
		t.Helper()
		if len(res.Records) != n {
			t.Fatalf("%s: %d evaluations, want %d", name, len(res.Records), n)
		}
		for i, rec := range res.Records {
			if rec.Config.Key() != pool[want[i]].Key() {
				t.Fatalf("%s: evaluation %d is pool entry %v, want %v", name, i, rec.Config, pool[want[i]])
			}
		}
	}
	for _, nmax := range []int{1, 37, len(pool), len(pool) + 50} {
		res := RSbScored(context.Background(), newBowl(), sp, RSbOptions{NMax: nmax})
		check(fmt.Sprintf("nmax-%d", nmax), res, min(nmax, len(pool)))
	}
	for _, stop := range []int{1, 20} {
		ctx, cancel := context.WithCancel(context.Background())
		p := &cancelAfter{bowl: newBowl(), n: stop, cancel: cancel}
		res := RSbScored(ctx, p, sp, RSbOptions{NMax: 100})
		cancel()
		check(fmt.Sprintf("cancelled-after-%d", stop), res, stop)
	}
}
