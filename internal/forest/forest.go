package forest

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Params configures random-forest training.
type Params struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MTry is the number of features per split (default ceil(nf/3), the
	// standard regression choice).
	MTry int
	// MinLeaf is the minimum leaf size (default 2).
	MinLeaf int
	// MaxDepth limits tree depth (0 = unlimited).
	MaxDepth int
	// SampleFraction is the bootstrap sample size as a fraction of the
	// training set (default 1.0, drawn with replacement).
	SampleFraction float64
	// Workers bounds the goroutines used by Fit (per tree) and PredictAll
	// (per shard); <= 0 means one per CPU. Results are workers-invariant:
	// every tree draws from its own named substream, and prediction only
	// reads the fitted ensemble.
	Workers int
}

func (p Params) withDefaults(nf int) Params {
	if p.Trees <= 0 {
		p.Trees = 100
	}
	if p.MTry <= 0 {
		p.MTry = (nf + 2) / 3
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 2
	}
	if p.SampleFraction <= 0 || p.SampleFraction > 1 {
		p.SampleFraction = 1
	}
	return p
}

// Forest is a fitted random-forest regressor.
type Forest struct {
	trees    []*Tree
	params   Params
	nf       int
	oobError float64
	oobValid bool
	fitRows  int
	fitDur   time.Duration
}

// Fit trains a random forest on X, y using the deterministic stream r.
// Trees are grown concurrently (each tree draws from its own named
// substream, so the result is independent of scheduling and identical to
// a sequential fit).
func Fit(X [][]float64, y []float64, p Params, r *rng.RNG) (*Forest, error) {
	return fit(X, y, p, r, FitTree)
}

// fit is Fit with the tree fitter as a parameter, so the tests can pin
// FitTree against a reference fitter forest by forest.
func fit(X [][]float64, y []float64, p Params, r *rng.RNG,
	fitTree func([][]float64, []float64, TreeParams, *rng.RNG) (*Tree, error)) (*Forest, error) {
	fitSW := obs.StartTimer()
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("forest: need non-empty, equal-length X and y (%d, %d)", len(X), len(y))
	}
	nf := len(X[0])
	for _, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("forest: ragged feature matrix")
		}
	}
	p = p.withDefaults(nf)
	f := &Forest{params: p, nf: nf, trees: make([]*Tree, p.Trees)}

	n := len(y)
	sampleN := int(math.Max(1, p.SampleFraction*float64(n)))

	type treeOut struct {
		inBag []bool
		err   error
	}
	outs := make([]treeOut, p.Trees)
	parallel.Do(p.Workers, p.Trees, func(t int) {
		tr := r.SplitNamed(fmt.Sprintf("tree-%d", t))
		inBag := make([]bool, n)
		idxX := make([][]float64, sampleN)
		idxY := make([]float64, sampleN)
		for i := 0; i < sampleN; i++ {
			j := tr.Intn(n)
			inBag[j] = true
			idxX[i] = X[j]
			idxY[i] = y[j]
		}
		tree, err := fitTree(idxX, idxY, TreeParams{
			MaxDepth: p.MaxDepth, MinLeaf: p.MinLeaf, MTry: p.MTry,
		}, tr)
		f.trees[t] = tree
		outs[t] = treeOut{inBag: inBag, err: err}
	})

	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}
	f.pack()

	// Out-of-bag bookkeeping: per-row prediction sum and count from trees
	// whose bootstrap missed the row (sequential, deterministic order).
	oobSum := make([]float64, n)
	oobCount := make([]int, n)
	for t, tree := range f.trees {
		for j := 0; j < n; j++ {
			if !outs[t].inBag[j] {
				oobSum[j] += walk(tree.nodes, X[j])
				oobCount[j]++
			}
		}
	}

	sse, cnt := 0.0, 0
	for j := 0; j < n; j++ {
		if oobCount[j] > 0 {
			d := oobSum[j]/float64(oobCount[j]) - y[j]
			sse += float64(d * d)
			cnt++
		}
	}
	if cnt > 0 {
		f.oobError = math.Sqrt(sse / float64(cnt))
		f.oobValid = true
	}
	f.fitRows = n
	f.fitDur = fitSW.Elapsed()
	return f, nil
}

// pack moves every tree's nodes into one contiguous slice and leaves
// each Tree a window onto it, so the OOB loop, Predict and PredictAll all
// walk one array. Fit and Load call it once the trees are final.
func (f *Forest) pack() {
	total := 0
	for _, t := range f.trees {
		total += len(t.nodes)
	}
	all := make([]node, 0, total)
	for _, t := range f.trees {
		lo := len(all)
		all = append(all, t.nodes...)
		t.nodes = all[lo:len(all):len(all)]
	}
}

// FitStats reports how the forest was trained: the number of training
// rows and the wall-clock time Fit took. The duration is observational
// only — it never influences predictions or any seeded stream — and
// feeds model-fit telemetry events.
func (f *Forest) FitStats() (rows int, dur time.Duration) { return f.fitRows, f.fitDur }

// Predict returns the forest prediction (mean over trees) for x.
//
// Predict is safe for concurrent use: a fitted forest is immutable, and
// prediction walks the contiguous node array without any shared scratch.
// The sum runs over trees 0..T-1 from 0.0, an order every prediction
// path keeps so results are bit-identical across them.
func (f *Forest) Predict(x []float64) float64 {
	f.checkWidth(x)
	sum := 0.0
	for _, t := range f.trees {
		sum += walk(t.nodes, x)
	}
	return sum / float64(len(f.trees))
}

func (f *Forest) checkWidth(x []float64) {
	if len(x) != f.nf {
		panic(fmt.Sprintf("forest: predict with %d features, trained on %d", len(x), f.nf))
	}
}

// predictBlock is how many rows PredictAll scores one tree at a time, so
// a tree's nodes stay in cache across the block.
const predictBlock = 64

// PredictAll predicts every row of X, sharding the rows over
// Params.Workers goroutines. Each shard writes disjoint indices of the
// output, and within a shard blocks of rows are scored tree by tree; every
// row still sums trees 0..T-1 from 0.0, so the result is bit-identical to
// a serial Predict loop for any worker count. Like Predict, PredictAll is
// safe to call concurrently from multiple goroutines.
func (f *Forest) PredictAll(X [][]float64) []float64 {
	for _, x := range X {
		f.checkWidth(x)
	}
	out := make([]float64, len(X))
	workers := parallel.Workers(f.params.Workers)
	if workers > len(X) {
		workers = len(X)
	}
	// Sharding (rather than one pool item per row) keeps the per-item
	// overhead negligible next to a single tree walk.
	parallel.Do(workers, workers, func(s int) {
		lo, hi := parallel.Shard(len(X), workers, s)
		for b := lo; b < hi; b += predictBlock {
			e := min(b+predictBlock, hi)
			rows, sums := X[b:e], out[b:e]
			for _, t := range f.trees {
				for i, x := range rows {
					sums[i] += walk(t.nodes, x)
				}
			}
			for i := range sums {
				sums[i] /= float64(len(f.trees))
			}
		}
	})
	return out
}

// NumFeatures returns the width of the feature vectors the forest was
// trained on, the width Predict and PredictAll accept.
func (f *Forest) NumFeatures() int { return f.nf }

// Workers returns Params.Workers, the bound on the goroutines Fit and
// PredictAll use; <= 0 means one per CPU.
func (f *Forest) Workers() int { return f.params.Workers }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// OOBError returns the out-of-bag RMSE and whether it is defined (it is
// undefined when every row was in every bag).
func (f *Forest) OOBError() (float64, bool) { return f.oobError, f.oobValid }

// Importance returns per-feature importance scores normalized to sum to 1
// (size-weighted split counts across all trees). It accumulates into a
// local buffer and only reads the fitted trees, so it is safe to call
// concurrently with itself and with Predict/PredictAll.
func (f *Forest) Importance() []float64 {
	acc := make([]float64, f.nf)
	for _, t := range f.trees {
		t.featureImportance(acc)
	}
	total := 0.0
	for _, v := range acc {
		total += v
	}
	if total > 0 {
		for i := range acc {
			acc[i] /= total
		}
	}
	return acc
}

// Tree returns the i-th tree (for inspection/rendering).
func (f *Forest) Tree(i int) *Tree { return f.trees[i] }
