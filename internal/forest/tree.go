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
	g := &grower{
		t: &Tree{}, X: X, y: y, p: p, r: r,
		pairs: make([]xy, len(y)), spill: make([]int, len(y)), all: make([]int, nf),
	}
	for i := range g.all {
		g.all[i] = i
	}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	g.grow(idx, 0)
	return g.t, nil
}

// xy is one training row as a node's split search sees it for one
// feature: the feature value and the target.
type xy struct{ x, y float64 }

// grower grows one tree. Its buffers are sized for the root and reused
// at every node, so the split search allocates nothing per node beyond
// the rng's feature sample.
type grower struct {
	t     *Tree
	X     [][]float64
	y     []float64
	p     TreeParams
	r     *rng.RNG
	pairs []xy  // one node's rows sorted by the candidate feature
	spill []int // right-hand rows while a node partitions idx in place
	all   []int // every feature index, the candidates without MTry
}

// grow recursively builds the subtree over the sample indices and returns
// its node position. It partitions idx in place, keeping each side in
// its original order.
func (g *grower) grow(idx []int, depth int) int {
	t, p := g.t, g.p
	mean, sse := meanSSE(g.y, idx)
	pos := len(t.nodes)
	t.nodes = append(t.nodes, node{val: mean, feature: -1})
	t.stats = append(t.stats, nodeStats{mean: mean, count: len(idx)})

	if sse <= 1e-24 || len(idx) < 2*p.minLeaf() || (p.MaxDepth > 0 && depth >= p.MaxDepth) {
		return pos
	}

	feat, thr, gain := g.bestSplit(idx)
	if feat < 0 || gain <= 0 {
		return pos
	}

	nl, right := 0, g.spill[:0]
	for _, i := range idx {
		if g.X[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(idx[nl:], right)
	if nl < p.minLeaf() || len(right) < p.minLeaf() {
		return pos
	}

	t.nodes[pos].feature = int32(feat)
	t.nodes[pos].val = thr
	t.stats[pos].gain = gain
	l := g.grow(idx[:nl], depth+1)
	rt := g.grow(idx[nl:], depth+1)
	t.nodes[pos].left = int32(l)
	t.nodes[pos].right = int32(rt)
	return pos
}

// bestSplit searches candidate features for the variance-minimizing
// threshold split.
func (g *grower) bestSplit(idx []int) (feat int, thr, gain float64) {
	p := g.p
	nf := len(g.all)
	candidates := g.all
	if p.MTry > 0 && p.MTry < nf && g.r != nil {
		candidates = g.r.SampleWithoutReplacement(nf, p.MTry)
	}

	_, parentSSE := meanSSE(g.y, idx)
	feat, gain = -1, 0

	n := len(idx)
	pairs := g.pairs[:n]
	minLeaf := p.minLeaf()
	for _, f := range candidates {
		for k, i := range idx {
			pairs[k] = xy{g.X[i][f], g.y[i]}
		}
		// sortByX is the pdqsort behind sort.Slice with x < x' inlined,
		// so the rows land in the permutation sort.Slice gave them: ties,
		// and with them the floating-point sums below, come out bit for
		// bit the same.
		sortByX(pairs)

		// Prefix sums over the sorted targets let us evaluate every
		// threshold in O(n).
		var sumL, sqL float64
		sumT, sqT := 0.0, 0.0
		for _, q := range pairs {
			sumT += q.y
			sqT += float64(q.y * q.y)
		}
		for i := 0; i < n-1; i++ {
			v := pairs[i].y
			sumL += v
			sqL += float64(v * v)
			// Cannot split between identical feature values.
			//lint:ignore floatcmp exact tie detection: a split threshold between bit-identical feature values would send equal inputs to different children
			if pairs[i].x == pairs[i+1].x {
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
			d := parentSSE - sseL - sseR
			if d > gain {
				gain = d
				feat = f
				thr = (pairs[i].x + pairs[i+1].x) / 2
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
		sse += float64(d * d)
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
