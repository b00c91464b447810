// Package stats provides the descriptive statistics used throughout the
// reproduction: means, variances, quantiles, Pearson/Spearman/Kendall
// correlation (Figures 1, 3, 4, 5), regression-quality metrics for the
// surrogate model, and bootstrap confidence intervals.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
)

// ErrLength is returned when paired samples have mismatched or empty lengths.
var ErrLength = errors.New("stats: samples must be non-empty and equal length")

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMin returns the index of the minimum value of xs (first if tied).
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("stats: ArgMin of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// xs is not modified. q must be a finite value in [0, 1]: NaN is
// rejected explicitly — it fails both range comparisons, so without its
// own check it would slip through and crash in slice indexing with a
// far less useful panic. NaN-bearing xs are the caller's concern
// (sort.Float64s places NaNs first, skewing the order statistics);
// search-layer callers filter failures via Dataset.Valid first.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi, frac := quantilePos(len(xs), q)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if lo == hi {
		return s[lo]
	}
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// QuantileInPlace returns Quantile(xs, q) bit for bit without the copy
// and the sort, for a caller that owns xs: it selects the one or two
// order statistics the quantile reads in expected O(len(xs)) time and
// leaves xs reordered. When xs holds a NaN or a zero it returns
// Quantile(xs, q) instead: NaNs, and +0 with -0, are equal under the
// sort's order yet differ in bits, so only the sort's own permutation
// decides which of them lands where.
func QuantileInPlace(xs []float64, q float64) float64 {
	for _, x := range xs {
		if x == 0 || math.IsNaN(x) {
			return Quantile(xs, q)
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi, frac := quantilePos(len(xs), q)
	selectNth(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// Everything after xs[lo] is at least xs[lo], so the next order
	// statistic is the smallest of them.
	return float64(xs[lo]*(1-frac)) + float64(slices.Min(xs[lo+1:])*frac)
}

// quantilePos locates the q-quantile of n > 0 sorted values: between the
// order statistics lo and hi (lo, or lo+1), frac of the way from lo.
func quantilePos(n int, q float64) (lo, hi int, frac float64) {
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic("stats: quantile q must be a finite value in [0,1]")
	}
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, float64(pos) - float64(lo)
}

// selectNth reorders xs, which holds no NaN, so that xs[k] is the k-th
// smallest value, nothing before it is larger and nothing after it is
// smaller. It partitions three ways around a median-of-three pivot, so
// runs of ties cost one pass.
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs) // xs[lo:hi] holds position k
	for hi-lo > 1 {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples (xs, ys).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrLength
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance in Pearson correlation")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Ranks returns the fractional ranks of xs (average rank for ties),
// with ranks starting at 1.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	//lint:ignore floatcmp rank inputs are measured (finite) run times; callers filter failures first
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		//lint:ignore floatcmp tie groups for average ranks must use exact equality (Wilcoxon/Spearman semantics)
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank across the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation coefficient of the paired
// samples, i.e. the Pearson correlation of their fractional ranks.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrLength
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Kendall returns the Kendall tau-b rank correlation of the paired samples.
// It is O(n^2); the experiment sample sizes (hundreds) make this fine.
func Kendall(xs, ys []float64) (float64, error) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0, ErrLength
	}
	var concordant, discordant, tiesX, tiesY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				// Tied in both; contributes to neither denominator term.
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx*dy > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	denom := math.Sqrt((concordant + discordant + tiesX) * (concordant + discordant + tiesY))
	if denom == 0 {
		return 0, errors.New("stats: zero denominator in Kendall correlation")
	}
	return (concordant - discordant) / denom, nil
}

// RMSE returns the root-mean-square error between predictions and truth.
func RMSE(pred, truth []float64) (float64, error) {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0, ErrLength
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// MAE returns the mean absolute error between predictions and truth.
func MAE(pred, truth []float64) (float64, error) {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0, ErrLength
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred)), nil
}

// R2 returns the coefficient of determination of predictions vs truth.
func R2(pred, truth []float64) (float64, error) {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0, ErrLength
	}
	m := Mean(truth)
	var ssRes, ssTot float64
	for i := range pred {
		d := truth[i] - pred[i]
		ssRes += float64(d * d)
		t := truth[i] - m
		ssTot += float64(t * t)
	}
	if ssTot == 0 {
		return 0, errors.New("stats: zero total variance in R2")
	}
	return 1 - ssRes/ssTot, nil
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// statistic stat over xs, at confidence level conf (e.g. 0.95), using
// reps resamples drawn from r.
func BootstrapCI(xs []float64, stat func([]float64) float64, conf float64, reps int, r *rng.RNG) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	vals := make([]float64, reps)
	resample := make([]float64, len(xs))
	for i := 0; i < reps; i++ {
		for j := range resample {
			resample[j] = xs[r.Intn(len(xs))]
		}
		vals[i] = stat(resample)
	}
	alpha := (1 - conf) / 2
	return Quantile(vals, alpha), Quantile(vals, 1-float64(alpha))
}

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Q25, Med, Q75 float64
	Max                float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  Min(xs),
		Q25:  Quantile(xs, 0.25),
		Med:  Median(xs),
		Q75:  Quantile(xs, 0.75),
		Max:  Max(xs),
	}
}

// Histogram bins xs into nbins equal-width bins over [min, max] and
// returns the bin edges (nbins+1) and counts (nbins).
func Histogram(xs []float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 {
		panic("stats: Histogram needs nbins > 0")
	}
	if len(xs) == 0 {
		return nil, nil
	}
	lo, hi := Min(xs), Max(xs)
	//lint:ignore floatcmp degenerate-range guard: exact equality is precisely the zero-width case being handled
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, nbins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(nbins)
	}
	counts = make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}

// Welford accumulates a running mean and variance in one pass.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the running statistics.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// N returns the number of observations so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN if empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running population variance (NaN if empty).
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.m2 / float64(w.n)
}
