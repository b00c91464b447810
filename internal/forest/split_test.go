package forest

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
)

// referenceFitTree is the tree fitter FitTree replaced: each node
// partitions its rows into freshly allocated left and right slices, and
// its split search sorts row indices with sort.Slice (a reflect swapper
// and a double-indexed less) over scratch allocated per node.
// TestFitSplitOrderPinned holds FitTree to it.
func referenceFitTree(X [][]float64, y []float64, p TreeParams, r *rng.RNG) (*Tree, error) {
	t := &Tree{}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	referenceGrow(t, X, y, idx, p, r, 0)
	return t, nil
}

// referenceTree is referenceFitTree as fit's tree fitter: it gathers the
// bootstrap sample's rows, as fit did before the rank table.
func referenceTree(X [][]float64, y []float64, _ *rankTable, rows []int, p TreeParams, r *rng.RNG) *Tree {
	sx, sy := make([][]float64, len(rows)), make([]float64, len(rows))
	for i, j := range rows {
		sx[i], sy[i] = X[j], y[j]
	}
	t, err := referenceFitTree(sx, sy, p, r)
	if err != nil {
		panic(err)
	}
	return t
}

func referenceGrow(t *Tree, X [][]float64, y []float64, idx []int, p TreeParams, r *rng.RNG, depth int) int {
	mean, sse := meanSSE(y, idx)
	pos := len(t.nodes)
	t.nodes = append(t.nodes, node{val: mean, feature: -1})
	t.stats = append(t.stats, nodeStats{mean: mean, count: len(idx)})

	if sse <= 1e-24 || len(idx) < 2*p.minLeaf() || (p.MaxDepth > 0 && depth >= p.MaxDepth) {
		return pos
	}

	feat, thr, gain := referenceBestSplit(X, y, idx, p, r)
	if feat < 0 || gain <= 0 {
		return pos
	}

	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < p.minLeaf() || len(right) < p.minLeaf() {
		return pos
	}

	t.nodes[pos].feature = int32(feat)
	t.nodes[pos].val = thr
	t.stats[pos].gain = gain
	l := referenceGrow(t, X, y, left, p, r, depth+1)
	rt := referenceGrow(t, X, y, right, p, r, depth+1)
	t.nodes[pos].left = int32(l)
	t.nodes[pos].right = int32(rt)
	return pos
}

func referenceBestSplit(X [][]float64, y []float64, idx []int, p TreeParams, r *rng.RNG) (feat int, thr, gain float64) {
	nf := len(X[0])
	candidates := make([]int, nf)
	for i := range candidates {
		candidates[i] = i
	}
	if p.MTry > 0 && p.MTry < nf && r != nil {
		candidates = r.SampleWithoutReplacement(nf, p.MTry)
	}

	_, parentSSE := meanSSE(y, idx)
	feat, gain = -1, 0

	vals := make([]float64, 0, len(idx))
	order := make([]int, len(idx))
	for _, f := range candidates {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })

		vals = vals[:0]
		for _, i := range order {
			vals = append(vals, y[i])
		}
		n := len(vals)
		var sumL, sqL float64
		sumT, sqT := 0.0, 0.0
		for _, v := range vals {
			sumT += v
			sqT += v * v
		}
		minLeaf := p.minLeaf()
		for i := 0; i < n-1; i++ {
			v := vals[i]
			sumL += v
			sqL += v * v
			if X[order[i]][f] == X[order[i+1]][f] {
				continue
			}
			nl := i + 1
			nr := n - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			sseL := sqL - sumL*sumL/float64(nl)
			sumR := sumT - sumL
			sseR := (sqT - sqL) - sumR*sumR/float64(nr)
			g := parentSSE - sseL - sseR
			if g > gain {
				gain = g
				feat = f
				thr = (X[order[i]][f] + X[order[i+1]][f]) / 2
			}
		}
	}
	return feat, thr, gain
}

// encodedTa is T_a as the transfer experiment fits it: RS's n
// evaluations on p, valid rows only, encoded. Kernel and mini-app
// features are small integers and log2 tile sizes, so nearly every
// column is full of ties.
func encodedTa(p search.Problem, n int, seed uint64) ([][]float64, []float64) {
	res := search.RS(context.Background(), p, n, rng.NewNamed(seed, "crn-stream"))
	return search.DatasetFrom(res).Valid().Encode(p.Space())
}

// TestFitSplitOrderPinned: the pdqsort behind slices.SortFunc permutes
// tied rows exactly as the one behind sort.Slice, and the in-place
// partition keeps each side's rows in order, so forests fitted with
// FitTree save byte-identical to forests fitted with the reference —
// tie order, prefix sums, thresholds and OOB error alike. A stable sort,
// or any other tie order, changes the sums and fails it.
func TestFitSplitOrderPinned(t *testing.T) {
	sandy := sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1}
	var problems []search.Problem
	for _, k := range kernels.All() {
		problems = append(problems, kernels.NewProblem(k, sandy))
	}
	problems = append(problems,
		miniapps.NewProblem(miniapps.HPL(), machine.Westmere),
		miniapps.NewProblem(miniapps.RT(), machine.Westmere))
	for _, p := range problems {
		for _, seed := range []uint64{1, 7, 2016} {
			X, y := encodedTa(p, 100, seed)
			nf := len(X[0])
			for _, params := range []Params{
				{Trees: 20},                      // MTry features sampled per split
				{Trees: 5, MTry: nf, MinLeaf: 1}, // every feature, single-row leaves
			} {
				name := fmt.Sprintf("%s/seed-%d/mtry-%d", p.Name(), seed, params.MTry)
				var got, want bytes.Buffer
				fitted, err := Fit(X, y, params, rng.NewNamed(seed, "forest"))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := fit(X, y, params, rng.NewNamed(seed, "forest"), referenceTree)
				if err != nil {
					t.Fatal(err)
				}
				if err := fitted.Save(&got); err != nil {
					t.Fatal(err)
				}
				if err := ref.Save(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s: forest differs from the sort.Slice reference", name)
				}
			}
		}
	}
}

// TestSampleFeaturesMatchesSampleWithoutReplacement: over an (n, k, seed)
// grid, the grower's in-place feature sample returns what
// rng.SampleWithoutReplacement returns on an identically seeded stream,
// call after call on one reused buffer, and leaves both streams at the
// same position.
func TestSampleFeaturesMatchesSampleWithoutReplacement(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16, 32, 83, 247} {
		for _, k := range []int{1, 2, n/4 - 1, n / 4, n/4 + 1, (n + 2) / 3, n - 1, n} {
			if k < 1 || k > n {
				continue
			}
			for _, seed := range []uint64{1, 2016, 1 << 40} {
				g := &grower{r: rng.New(seed), all: make([]int, n)}
				ref := rng.New(seed)
				for call := 0; call < 5; call++ {
					got, want := g.sampleFeatures(k), ref.SampleWithoutReplacement(n, k)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("n=%d k=%d seed=%d call %d: got %v, want %v", n, k, seed, call, got, want)
					}
					if a, b := g.r.Uint64(), ref.Uint64(); a != b {
						t.Fatalf("n=%d k=%d seed=%d call %d: streams diverge after the sample", n, k, seed, call)
					}
				}
			}
		}
	}
}
