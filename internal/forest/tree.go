// Package forest implements CART regression trees and random forests from
// scratch — the supervised learner the paper uses for its surrogate
// performance model M_a (Breiman 2001). Trees split on feature thresholds
// to minimize the variance of run times within partitions; a forest
// averages trees fit on bootstrap resamples with per-split feature
// subsampling. The package also renders fitted trees as text (Figure 2)
// and reports out-of-bag error and variable importance.
package forest

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rng"
)

// node is the part of a regression-tree node that prediction reads: 24
// bytes (a float64, three int32s and padding), so a descent touches as
// few cache lines as possible. A forest keeps every tree's nodes in one
// contiguous slice (see Forest.pack); children are tree-local indices.
type node struct {
	// val is the split threshold of an internal node and the prediction
	// of a leaf.
	val float64
	// feature < 0 marks a leaf.
	feature int32
	left    int32
	right   int32
}

// nodeStats is the part of a node prediction never reads, kept beside
// the hot nodes (same index) for rendering, importance and Save.
type nodeStats struct {
	mean  float64 // mean training target in this node
	count int     // training rows in this node
	gain  float64 // variance reduction achieved by this split
}

// Tree is a fitted CART regression tree.
type Tree struct {
	nodes []node
	stats []nodeStats
}

// TreeParams configures tree induction.
type TreeParams struct {
	// MaxDepth limits tree depth (0 = unlimited).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// MTry is the number of features considered per split
	// (0 = all features).
	MTry int
}

func (p TreeParams) minLeaf() int {
	if p.MinLeaf < 1 {
		return 1
	}
	return p.MinLeaf
}

// FitTree grows a regression tree on rows X (features) and targets y.
// The rng is used for feature subsampling; pass nil to consider every
// feature at every split (plain CART).
func FitTree(X [][]float64, y []float64, p TreeParams, r *rng.RNG) (*Tree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("forest: need non-empty, equal-length X and y (%d, %d)", len(X), len(y))
	}
	nf := len(X[0])
	for _, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("forest: ragged feature matrix")
		}
	}
	t := &Tree{}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	t.grow(X, y, idx, p, r, 0)
	return t, nil
}

// grow recursively builds the subtree over the sample indices and returns
// its node position.
func (t *Tree) grow(X [][]float64, y []float64, idx []int, p TreeParams, r *rng.RNG, depth int) int {
	mean, sse := meanSSE(y, idx)
	pos := len(t.nodes)
	t.nodes = append(t.nodes, node{val: mean, feature: -1})
	t.stats = append(t.stats, nodeStats{mean: mean, count: len(idx)})

	if sse <= 1e-24 || len(idx) < 2*p.minLeaf() || (p.MaxDepth > 0 && depth >= p.MaxDepth) {
		return pos
	}

	feat, thr, gain := t.bestSplit(X, y, idx, p, r)
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
	l := t.grow(X, y, left, p, r, depth+1)
	rt := t.grow(X, y, right, p, r, depth+1)
	t.nodes[pos].left = int32(l)
	t.nodes[pos].right = int32(rt)
	return pos
}

// bestSplit searches candidate features for the variance-minimizing
// threshold split.
func (t *Tree) bestSplit(X [][]float64, y []float64, idx []int, p TreeParams, r *rng.RNG) (feat int, thr, gain float64) {
	nf := len(X[0])
	candidates := make([]int, nf)
	for i := range candidates {
		candidates[i] = i
	}
	if p.MTry > 0 && p.MTry < nf && r != nil {
		sel := r.SampleWithoutReplacement(nf, p.MTry)
		candidates = sel
	}

	_, parentSSE := meanSSE(y, idx)
	feat, gain = -1, 0

	vals := make([]float64, 0, len(idx))
	order := make([]int, len(idx))
	for _, f := range candidates {
		copy(order, idx)
		//lint:ignore floatcmp encoded feature values are finite by construction (space.Encode yields finite floats)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })

		vals = vals[:0]
		for _, i := range order {
			vals = append(vals, y[i])
		}
		// Prefix sums over the sorted targets let us evaluate every
		// threshold in O(n).
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
			// Cannot split between identical feature values.
			//lint:ignore floatcmp exact tie detection: a split threshold between bit-identical feature values would send equal inputs to different children
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

func meanSSE(y []float64, idx []int) (mean, sse float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	return mean, sse
}

// Predict returns the tree's prediction for one feature vector.
func (t *Tree) Predict(x []float64) float64 { return walk(t.nodes, x) }

// walk descends one tree's nodes from its root (index 0) to a leaf.
func walk(nodes []node, x []float64) float64 {
	var pos int32
	for {
		n := &nodes[pos]
		if n.feature < 0 {
			return n.val
		}
		if x[n.feature] <= n.val {
			pos = n.left
		} else {
			pos = n.right
		}
	}
}

// Depth returns the maximum depth of the tree (a lone root has depth 0).
func (t *Tree) Depth() int { return t.depth(0) }

func (t *Tree) depth(pos int) int {
	n := t.nodes[pos]
	if n.feature < 0 {
		return 0
	}
	l := t.depth(int(n.left))
	r := t.depth(int(n.right))
	return 1 + int(math.Max(float64(l), float64(r)))
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int {
	count := 0
	for _, n := range t.nodes {
		if n.feature < 0 {
			count++
		}
	}
	return count
}

// String renders the tree with if/else rules, as in the paper's Figure 2.
// names supplies feature names; nil falls back to x0, x1, ...
func (t *Tree) String(names []string) string {
	var b strings.Builder
	t.render(&b, 0, 0, names)
	return b.String()
}

func (t *Tree) render(b *strings.Builder, pos, indent int, names []string) {
	pad := strings.Repeat("  ", indent)
	n := t.nodes[pos]
	if n.feature < 0 {
		fmt.Fprintf(b, "%s-> %.4g  (n=%d)\n", pad, n.val, t.stats[pos].count)
		return
	}
	name := fmt.Sprintf("x%d", n.feature)
	if names != nil && int(n.feature) < len(names) {
		name = names[n.feature]
	}
	fmt.Fprintf(b, "%sif %s <= %.4g:\n", pad, name, n.val)
	t.render(b, int(n.left), indent+1, names)
	fmt.Fprintf(b, "%selse:  # %s > %.4g\n", pad, name, n.val)
	t.render(b, int(n.right), indent+1, names)
}

// featureImportance accumulates, per feature, the total variance
// reduction its splits achieved (the standard impurity-based importance).
func (t *Tree) featureImportance(acc []float64) {
	for i, n := range t.nodes {
		if n.feature >= 0 && int(n.feature) < len(acc) {
			acc[n.feature] += t.stats[i].gain
		}
	}
}
