package forest

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

// synth generates a nonlinear regression data set with interactions, the
// shape of autotuning landscapes: y = f(x0, x1) + small noise.
func synth(n int, r *rng.RNG) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x0 := r.Float64() * 10
		x1 := r.Float64() * 10
		x2 := r.Float64() // irrelevant feature
		X[i] = []float64{x0, x1, x2}
		y[i] = 3*x0 + x0*x1 - 2*math.Abs(x1-5) + 0.1*r.NormFloat64()
	}
	return X, y
}

func TestTreeFitsConstantData(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{7, 7, 7}
	tr, err := FitTree(X, y, TreeParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1 {
		t.Fatalf("constant data grew %d leaves", tr.Leaves())
	}
	if got := tr.Predict([]float64{99}); got != 7 {
		t.Fatalf("constant prediction = %v", got)
	}
}

func TestTreeSeparatesTwoGroups(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []float64{1, 1, 1, 5, 5, 5}
	tr, err := FitTree(X, y, TreeParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0}); got != 1 {
		t.Fatalf("left group prediction = %v", got)
	}
	if got := tr.Predict([]float64{20}); got != 5 {
		t.Fatalf("right group prediction = %v", got)
	}
	if tr.Depth() != 1 {
		t.Fatalf("two-group split depth = %d, want 1", tr.Depth())
	}
}

func TestTreeInterpolatesTraining(t *testing.T) {
	// With MinLeaf=1 and no depth limit, a tree on distinct features must
	// reproduce its training targets exactly.
	r := rng.New(3)
	X, y := synth(50, r)
	tr, err := FitTree(X, y, TreeParams{MinLeaf: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if math.Abs(tr.Predict(X[i])-y[i]) > 1e-9 {
			t.Fatalf("training row %d not reproduced: %v vs %v", i, tr.Predict(X[i]), y[i])
		}
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	r := rng.New(5)
	X, y := synth(200, r)
	tr, err := FitTree(X, y, TreeParams{MaxDepth: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 3 {
		t.Fatalf("depth %d exceeds max 3", tr.Depth())
	}
}

func TestTreeMinLeafRespected(t *testing.T) {
	r := rng.New(7)
	X, y := synth(100, r)
	tr, err := FitTree(X, y, TreeParams{MinLeaf: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range tr.nodes {
		if n.feature < 0 && tr.stats[i].count < 10 {
			t.Fatalf("leaf with %d < 10 samples", tr.stats[i].count)
		}
	}
}

func TestTreePredictionWithinTrainingRange(t *testing.T) {
	r := rng.New(9)
	X, y := synth(120, r)
	tr, err := FitTree(X, y, TreeParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := stats.Min(y), stats.Max(y)
	f := func(a, b, c uint8) bool {
		p := tr.Predict([]float64{float64(a), float64(b), float64(c)})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeParams{}, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := FitTree([][]float64{{1}, {2}}, []float64{1}, TreeParams{}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := FitTree([][]float64{{1}, {2, 3}}, []float64{1, 2}, TreeParams{}, nil); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := Fit(nil, nil, Params{}, rng.New(1)); err == nil {
		t.Fatal("forest on empty data accepted")
	}
}

func TestForestBeatsMeanPredictor(t *testing.T) {
	r := rng.New(11)
	X, y := synth(400, r)
	Xtest, ytest := synth(200, r)
	f, err := Fit(X, y, Params{Trees: 60}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pred := f.PredictAll(Xtest)
	rmse, _ := stats.RMSE(pred, ytest)
	baseline := stats.StdDev(ytest)
	if rmse > baseline*0.5 {
		t.Fatalf("forest RMSE %.3f not clearly better than mean predictor %.3f", rmse, baseline)
	}
	r2, _ := stats.R2(pred, ytest)
	if r2 < 0.8 {
		t.Fatalf("forest R2 = %.3f, want >= 0.8 on smooth synthetic data", r2)
	}
}

func TestForestDeterministic(t *testing.T) {
	r := rng.New(13)
	X, y := synth(150, r)
	f1, _ := Fit(X, y, Params{Trees: 20}, rng.New(99))
	f2, _ := Fit(X, y, Params{Trees: 20}, rng.New(99))
	probe := []float64{4, 6, 0.5}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Fatal("forest training not deterministic under the same seed")
	}
	f3, _ := Fit(X, y, Params{Trees: 20}, rng.New(100))
	if f1.Predict(probe) == f3.Predict(probe) {
		t.Fatal("different seeds produced identical forests (suspicious)")
	}
}

func TestForestOOBErrorReasonable(t *testing.T) {
	r := rng.New(17)
	X, y := synth(300, r)
	f, _ := Fit(X, y, Params{Trees: 80}, rng.New(1))
	oob, ok := f.OOBError()
	if !ok {
		t.Fatal("OOB error undefined with 80 bootstrap trees")
	}
	if oob <= 0 || oob > stats.StdDev(y) {
		t.Fatalf("OOB RMSE %.3f outside (0, std=%.3f]", oob, stats.StdDev(y))
	}
}

func TestForestPredictionBounded(t *testing.T) {
	r := rng.New(19)
	X, y := synth(200, r)
	f, _ := Fit(X, y, Params{Trees: 30}, rng.New(2))
	lo, hi := stats.Min(y), stats.Max(y)
	probe := func(a, b, c uint8) bool {
		p := f.Predict([]float64{float64(a) * 10, float64(b) * 10, float64(c)})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(probe, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestImportanceFindsRelevantFeatures(t *testing.T) {
	r := rng.New(23)
	X, y := synth(400, r)
	f, _ := Fit(X, y, Params{Trees: 60}, rng.New(3))
	imp := f.Importance()
	if len(imp) != 3 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance does not sum to 1: %v", sum)
	}
	// x2 is pure noise: it must matter far less than x0 and x1.
	if imp[2] > imp[0]/2 || imp[2] > imp[1]/2 {
		t.Fatalf("irrelevant feature ranked too high: %v", imp)
	}
}

func TestForestRankCorrelationOnLandscape(t *testing.T) {
	// The surrogate's job in the paper is ranking configurations, not
	// exact prediction. Check Spearman between prediction and truth.
	r := rng.New(29)
	X, y := synth(500, r)
	Xt, yt := synth(300, r)
	f, _ := Fit(X, y, Params{Trees: 60}, rng.New(4))
	rho, err := stats.Spearman(f.PredictAll(Xt), yt)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.9 {
		t.Fatalf("surrogate rank correlation %.3f < 0.9", rho)
	}
}

func TestTreeStringRendersRules(t *testing.T) {
	X := [][]float64{{1, 0}, {2, 0}, {10, 0}, {11, 0}}
	y := []float64{1, 1, 5, 5}
	tr, _ := FitTree(X, y, TreeParams{}, nil)
	s := tr.String([]string{"U_I", "RT_J"})
	if !strings.Contains(s, "if U_I <=") {
		t.Fatalf("rendered tree missing named rule:\n%s", s)
	}
	if !strings.Contains(s, "else") || !strings.Contains(s, "->") {
		t.Fatalf("rendered tree missing structure:\n%s", s)
	}
	// Default names.
	s2 := tr.String(nil)
	if !strings.Contains(s2, "x0") {
		t.Fatalf("default feature names missing:\n%s", s2)
	}
}

func TestPredictPanicsOnWrongWidth(t *testing.T) {
	r := rng.New(31)
	X, y := synth(50, r)
	f, _ := Fit(X, y, Params{Trees: 5}, rng.New(5))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong feature width did not panic")
		}
	}()
	f.Predict([]float64{1})
}

func TestDefaultsApplied(t *testing.T) {
	p := Params{}.withDefaults(9)
	if p.Trees != 100 || p.MTry != 3 || p.MinLeaf != 2 || p.SampleFraction != 1 {
		t.Fatalf("defaults wrong: %+v", p)
	}
}

func BenchmarkForestFit(b *testing.B) {
	r := rng.New(1)
	X, y := synth(200, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, Params{Trees: 50}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	r := rng.New(1)
	X, y := synth(200, r)
	f, _ := Fit(X, y, Params{Trees: 50}, rng.New(1))
	probe := []float64{5, 5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(probe)
	}
}

// TestParallelFitIsDeterministic: tree t always draws from the substream
// named "tree-t", so the concurrently-fitted forest must be identical
// across runs and GOMAXPROCS settings.
func TestParallelFitIsDeterministic(t *testing.T) {
	r := rng.New(71)
	X, y := synth(250, r)
	var preds []float64
	probe := []float64{3, 6, 0.2}
	for trial := 0; trial < 4; trial++ {
		f, err := Fit(X, y, Params{Trees: 40}, rng.New(500))
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, f.Predict(probe))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i] != preds[0] {
			t.Fatalf("parallel fit not deterministic: %v", preds)
		}
	}
}
