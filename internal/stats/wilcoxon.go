package stats

import (
	"errors"
	"math"
)

// Wilcoxon signed-rank test for paired samples. The paper runs each
// randomized algorithm once (justified by common random numbers); the
// replication extension (experiments ext-replicates) re-runs the
// comparison across seeds and uses this test to report whether a
// variant's advantage over RS is statistically significant.

// WilcoxonResult is the outcome of the signed-rank test.
type WilcoxonResult struct {
	// W is the signed-rank statistic (sum of ranks of positive
	// differences).
	W float64
	// N is the number of non-zero differences used.
	N int
	// Z is the normal approximation z-score (valid for N >= ~10).
	Z float64
	// P is the two-sided p-value under the normal approximation.
	P float64
}

// Wilcoxon performs the two-sided Wilcoxon signed-rank test on paired
// samples xs, ys, testing the hypothesis that their differences are
// symmetric around zero. Zero differences are dropped, ties receive
// average ranks, and the normal approximation includes the tie
// correction.
func Wilcoxon(xs, ys []float64) (WilcoxonResult, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return WilcoxonResult{}, ErrLength
	}
	var diffs []float64
	for i := range xs {
		if d := xs[i] - ys[i]; d != 0 {
			diffs = append(diffs, d)
		}
	}
	n := len(diffs)
	if n == 0 {
		return WilcoxonResult{}, errors.New("stats: all differences are zero")
	}

	abs := make([]float64, n)
	for i, d := range diffs {
		abs[i] = math.Abs(d)
	}
	ranks := Ranks(abs)

	var wPlus float64
	tieCorrection := 0.0
	// Group identical absolute differences to compute the tie term.
	counts := map[float64]int{}
	for i, d := range diffs {
		if d > 0 {
			wPlus += ranks[i]
		}
		counts[abs[i]]++
	}
	for _, c := range counts {
		if c > 1 {
			fc := float64(c)
			tieCorrection += float64(fc*fc*fc) - fc
		}
	}

	fn := float64(n)
	mean := float64(fn * (fn + 1) / 4)
	variance := fn*(fn+1)*(2*fn+1)/24 - tieCorrection/48
	if variance <= 0 {
		return WilcoxonResult{W: wPlus, N: n}, errors.New("stats: zero variance in Wilcoxon test")
	}
	z := (wPlus - mean) / math.Sqrt(variance)
	p := 2 * (1 - normalCDF(math.Abs(z)))
	return WilcoxonResult{W: wPlus, N: n, Z: z, P: p}, nil
}

// normalCDF is the standard normal CDF via the complementary error
// function.
func normalCDF(z float64) float64 {
	return float64(0.5 * math.Erfc(-z/math.Sqrt2))
}
