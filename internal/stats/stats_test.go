package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", m)
	}
	if v := Variance(xs); !almostEqual(v, 4, 1e-12) {
		t.Fatalf("variance = %v, want 4", v)
	}
	if s := StdDev(xs); !almostEqual(s, 2, 1e-12) {
		t.Fatalf("stddev = %v, want 2", s)
	}
}

func TestMeanEmptyNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Fatal("empty mean/variance should be NaN")
	}
}

func TestMinMaxArgMin(t *testing.T) {
	xs := []float64{3, -1, 4, -1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Fatal("min/max wrong")
	}
	if ArgMin(xs) != 1 {
		t.Fatalf("ArgMin = %d, want 1 (first minimum)", ArgMin(xs))
	}
}

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := Quantile(xs, q)
		if v < prev-1e-9 {
			t.Fatalf("quantile not monotone at q=%v", q)
		}
		prev = v
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	rho, err := Pearson(xs, ys)
	if err != nil || !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("perfect linear: rho=%v err=%v", rho, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	rho, _ = Pearson(xs, neg)
	if !almostEqual(rho, -1, 1e-12) {
		t.Fatalf("perfect negative: rho=%v", rho)
	}
}

func TestPearsonInvariantToAffineTransform(t *testing.T) {
	r := rng.New(2)
	f := func(scaleRaw, shiftRaw uint8) bool {
		scale := float64(scaleRaw%50) + 1
		shift := float64(shiftRaw) - 128
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = r.Float64()
			ys[i] = r.Float64()
		}
		r1, err1 := Pearson(xs, ys)
		zs := make([]float64, len(ys))
		for i := range ys {
			zs[i] = scale*ys[i] + shift
		}
		r2, err2 := Pearson(xs, zs)
		return err1 == nil && err2 == nil && almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonBounded(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 20)
		ys := make([]float64, 20)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		rho, err := Pearson(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if rho < -1-1e-9 || rho > 1+1e-9 {
			t.Fatalf("Pearson out of [-1,1]: %v", rho)
		}
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson(nil, nil); err == nil {
		t.Fatal("empty Pearson should error")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched Pearson should error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero-variance Pearson should error")
	}
}

func TestRanksWithTies(t *testing.T) {
	xs := []float64{10, 20, 20, 30}
	got := Ranks(xs)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone but very nonlinear
	}
	rho, err := Spearman(xs, ys)
	if err != nil || !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("Spearman of monotone map = %v (err %v), want 1", rho, err)
	}
}

func TestSpearmanReversal(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{5, 4, 3, 2, 1}
	rho, _ := Spearman(xs, ys)
	if !almostEqual(rho, -1, 1e-12) {
		t.Fatalf("Spearman = %v, want -1", rho)
	}
}

func TestKendallKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 2, 3, 4, 5}
	tau, err := Kendall(xs, ys)
	if err != nil || !almostEqual(tau, 1, 1e-12) {
		t.Fatalf("Kendall identity = %v, want 1", tau)
	}
	ysRev := []float64{5, 4, 3, 2, 1}
	tau, _ = Kendall(xs, ysRev)
	if !almostEqual(tau, -1, 1e-12) {
		t.Fatalf("Kendall reversal = %v, want -1", tau)
	}
}

func TestKendallBoundedProperty(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 15)
		ys := make([]float64, 15)
		for i := range xs {
			xs[i] = float64(r.Intn(5)) // deliberate ties
			ys[i] = float64(r.Intn(5))
		}
		tau, err := Kendall(xs, ys)
		if err != nil {
			continue // all-tied sample; acceptable error
		}
		if tau < -1-1e-9 || tau > 1+1e-9 {
			t.Fatalf("Kendall out of range: %v", tau)
		}
	}
}

func TestRegressionMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 3}
	if v, _ := RMSE(pred, truth); v != 0 {
		t.Fatalf("RMSE of perfect prediction = %v", v)
	}
	if v, _ := MAE(pred, truth); v != 0 {
		t.Fatalf("MAE of perfect prediction = %v", v)
	}
	if v, _ := R2(pred, truth); !almostEqual(v, 1, 1e-12) {
		t.Fatalf("R2 of perfect prediction = %v", v)
	}
	pred2 := []float64{2, 3, 4}
	if v, _ := RMSE(pred2, truth); !almostEqual(v, 1, 1e-12) {
		t.Fatalf("RMSE of off-by-one = %v", v)
	}
	if v, _ := MAE(pred2, truth); !almostEqual(v, 1, 1e-12) {
		t.Fatalf("MAE of off-by-one = %v", v)
	}
	// R2 of predicting the mean is 0.
	mean := Mean(truth)
	pred3 := []float64{mean, mean, mean}
	if v, _ := R2(pred3, truth); !almostEqual(v, 0, 1e-12) {
		t.Fatalf("R2 of mean predictor = %v", v)
	}
}

func TestBootstrapCIContainsTruth(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()
	}
	lo, hi := BootstrapCI(xs, Mean, 0.95, 500, r)
	if !(lo < 10 && 10 < hi) {
		t.Fatalf("95%% CI [%v, %v] does not contain true mean 10", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Fatalf("CI suspiciously wide: [%v, %v]", lo, hi)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Med != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestHistogramCountsSum(t *testing.T) {
	r := rng.New(11)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	edges, counts := Histogram(xs, 10)
	if len(edges) != 11 || len(counts) != 10 {
		t.Fatalf("bad histogram shape: %d edges, %d counts", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(xs) {
		t.Fatalf("histogram counts sum to %d, want %d", total, len(xs))
	}
	if !sort.Float64sAreSorted(edges) {
		t.Fatal("histogram edges not sorted")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := rng.New(13)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = r.NormFloat64() * 3
		w.Add(xs[i])
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("Welford mean %v vs batch %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("Welford variance %v vs batch %v", w.Variance(), Variance(xs))
	}
	if w.N() != len(xs) {
		t.Fatalf("Welford N = %d", w.N())
	}
}

func TestSpearmanEqualsPearsonOnRanks(t *testing.T) {
	r := rng.New(17)
	xs := make([]float64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = xs[i] + 0.3*r.NormFloat64()
	}
	s, err1 := Spearman(xs, ys)
	p, err2 := Pearson(Ranks(xs), Ranks(ys))
	if err1 != nil || err2 != nil || !almostEqual(s, p, 1e-12) {
		t.Fatalf("Spearman %v != Pearson-of-ranks %v", s, p)
	}
}

// TestQuantileRejectsNonFiniteQ: NaN fails both range comparisons of a
// naive q < 0 || q > 1 guard and used to slip through to slice indexing;
// the guard must reject it (and +/-Inf) with a clear panic.
func TestQuantileRejectsNonFiniteQ(t *testing.T) {
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(xs, %v) did not panic", q)
				}
			}()
			Quantile([]float64{1, 2, 3}, q)
		}()
	}
	// The valid boundary values must still work.
	if got := Quantile([]float64{1, 2, 3}, 0); got != 1 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := Quantile([]float64{1, 2, 3}, 1); got != 3 {
		t.Fatalf("Quantile(1) = %v", got)
	}
}

// TestQuantileInPlaceMatchesQuantile: the selecting quantile returns
// Quantile's value bit for bit, at every q from 0 to 1, on tie-heavy
// inputs of every size from one value up, with ±Inf among them, and,
// through its fallback, with NaNs of two payloads and zeros of both
// signs; and it leaves xs a permutation of its input.
func TestQuantileInPlaceMatchesQuantile(t *testing.T) {
	r := rng.New(30)
	negNaN := math.Float64frombits(0xFFF8000000000000)
	specials := [][]float64{
		nil,
		{math.Inf(1), math.Inf(-1)},
		{math.NaN(), negNaN, math.Inf(1)},
		{math.Copysign(0, -1), 0, math.Copysign(0, -1)},
		{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1)},
	}
	for _, n := range []int{1, 2, 3, 5, 17, 100, 1000, 10000} {
		for _, distinct := range []int{1, 4, 1 << 30} {
			for si, sp := range specials {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = float64(r.Intn(distinct)+1) * 0.25
				}
				for j, v := range sp {
					xs[r.Intn(n)] = v
					if j%2 == 0 && n > 1 {
						xs[r.Intn(n)] = v
					}
				}
				for _, q := range []float64{0, 0.01, 0.2, 0.5, 0.77, 0.999, 1} {
					want := Quantile(xs, q)
					ys := append([]float64(nil), xs...)
					got := QuantileInPlace(ys, q)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d distinct=%d specials=%d q=%g: got %v (%#x), want %v (%#x)",
							n, distinct, si, q, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					a, b := append([]float64(nil), xs...), append([]float64(nil), ys...)
					sort.Float64s(a)
					sort.Float64s(b)
					for i := range a {
						if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
							t.Fatalf("n=%d distinct=%d specials=%d q=%g: xs is no longer a permutation of its input", n, distinct, si, q)
						}
					}
				}
			}
		}
	}
	if got := QuantileInPlace(nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("QuantileInPlace(nil) = %v, want NaN", got)
	}
}
