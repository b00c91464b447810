package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// This file provides alternative surrogate families used by the ablation
// studies (DESIGN.md section 5): the paper chooses random forests, citing
// earlier work; the ablations quantify that choice against a k-nearest-
// neighbor model, an ordinary least-squares linear model, and a single
// CART tree.

// KNNModel predicts by averaging the k nearest training points under
// per-feature normalized Euclidean distance.
type KNNModel struct {
	X     [][]float64
	Y     []float64
	K     int
	scale []float64
}

// FitKNN builds a k-NN surrogate from a dataset. Non-finite rows are
// dropped before fitting.
func FitKNN(ta search.Dataset, spc *space.Space, k int) (*KNNModel, error) {
	if ta = ta.Valid(); len(ta) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	if k < 1 {
		k = 5
	}
	if k > len(ta) {
		k = len(ta)
	}
	X, y := ta.Encode(spc)
	nf := len(X[0])
	scale := make([]float64, nf)
	for f := 0; f < nf; f++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range X {
			lo = math.Min(lo, row[f])
			hi = math.Max(hi, row[f])
		}
		if hi > lo {
			scale[f] = 1 / (hi - lo)
		}
	}
	return &KNNModel{X: X, Y: y, K: k, scale: scale}, nil
}

// Predict implements search.Model. The distance scratch is allocated
// per call and the fitted fields are never written after FitKNN, so
// Predict is safe for concurrent use.
func (m *KNNModel) Predict(x []float64) float64 {
	type nd struct {
		d float64
		y float64
	}
	ds := make([]nd, len(m.X))
	for i, row := range m.X {
		d := 0.0
		for f := range row {
			diff := (row[f] - x[f]) * m.scale[f]
			d += float64(diff * diff)
		}
		ds[i] = nd{d: d, y: m.Y[i]}
	}
	//lint:ignore floatcmp distances are sums of squares of finite encoded features; no NaN can enter
	sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
	sum := 0.0
	for i := 0; i < m.K; i++ {
		sum += ds[i].y
	}
	return sum / float64(m.K)
}

// LinearModel is ordinary least squares with an intercept, solved by
// normal equations with a small ridge term for stability.
type LinearModel struct {
	w []float64 // intercept first
}

// FitLinear fits the linear surrogate. Non-finite rows are dropped
// before fitting.
func FitLinear(ta search.Dataset, spc *space.Space) (*LinearModel, error) {
	if ta = ta.Valid(); len(ta) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	X, y := ta.Encode(spc)
	n := len(X)
	p := len(X[0]) + 1

	// Build A = X'X + lambda*I and b = X'y over the augmented design.
	A := make([][]float64, p)
	for i := range A {
		A[i] = make([]float64, p)
	}
	b := make([]float64, p)
	row := make([]float64, p)
	for i := 0; i < n; i++ {
		row[0] = 1
		copy(row[1:], X[i])
		for r := 0; r < p; r++ {
			b[r] += float64(row[r] * y[i])
			for c := 0; c < p; c++ {
				A[r][c] += float64(row[r] * row[c])
			}
		}
	}
	lambda := float64(1e-8 * float64(n))
	for i := 0; i < p; i++ {
		A[i][i] += lambda
	}

	w, err := solve(A, b)
	if err != nil {
		return nil, err
	}
	return &LinearModel{w: w}, nil
}

// solve performs Gaussian elimination with partial pivoting.
func solve(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(A[pivot][col]) < 1e-14 {
			return nil, fmt.Errorf("core: singular design matrix")
		}
		A[col], A[pivot] = A[pivot], A[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c < n; c++ {
				A[r][c] -= float64(f * A[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= float64(A[r][c] * x[c])
		}
		x[r] = s / A[r][r]
	}
	return x, nil
}

// Predict implements search.Model. It only reads the fitted weights, so
// it is safe for concurrent use.
func (m *LinearModel) Predict(x []float64) float64 {
	v := m.w[0]
	for i, xi := range x {
		v += float64(m.w[i+1] * xi)
	}
	return v
}

// FitSingleTree fits one unbagged CART tree (no feature subsampling) as
// the simplest recursive-partitioning baseline.
func FitSingleTree(ta search.Dataset, spc *space.Space, minLeaf int) (*forest.Tree, error) {
	if ta = ta.Valid(); len(ta) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	X, y := ta.Encode(spc)
	return forest.FitTree(X, y, forest.TreeParams{MinLeaf: minLeaf}, nil)
}

// SurrogateFamily names an ablation surrogate choice.
type SurrogateFamily string

// The ablation surrogate families.
const (
	FamilyForest SurrogateFamily = "forest"
	FamilyTree   SurrogateFamily = "tree"
	FamilyKNN    SurrogateFamily = "knn"
	FamilyLinear SurrogateFamily = "linear"
)

// FitFamily fits the named surrogate family on a dataset, returning a
// model usable by RSp/RSb.
func FitFamily(family SurrogateFamily, ta search.Dataset, spc *space.Space, seed uint64) (search.Model, error) {
	switch family {
	case FamilyForest:
		sur, err := FitSurrogate(ta, spc, "ablation", forest.Params{}, rng.New(seed))
		if err != nil {
			return nil, err
		}
		return sur, nil
	case FamilyTree:
		return FitSingleTree(ta, spc, 2)
	case FamilyKNN:
		return FitKNN(ta, spc, 5)
	case FamilyLinear:
		return FitLinear(ta, spc)
	default:
		return nil, fmt.Errorf("core: unknown surrogate family %q", family)
	}
}
