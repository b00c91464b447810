// Package forest implements CART regression trees and random forests from
// scratch — the supervised learner the paper uses for its surrogate
// performance model M_a (Breiman 2001). Trees split on feature thresholds
// to minimize the variance of run times within partitions; a forest
// averages trees fit on bootstrap resamples with per-split feature
// subsampling. The package also renders fitted trees as text (Figure 2)
// and reports out-of-bag error and variable importance.
package forest

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// feature at every split (plain CART). Every value must be finite.
func FitTree(X [][]float64, y []float64, p TreeParams, r *rng.RNG) (*Tree, error) {
	if err := checkFitInput(X, y); err != nil {
		return nil, err
	}
	rows := make([]int, len(y))
	for i := range rows {
		rows[i] = i
	}
	ranks := newRankTable(X)
	return growTree(X, y, &ranks, rows, p, r), nil
}

// checkFitInput refuses what no tree can be fitted on: an empty or ragged
// matrix, a length mismatch, or a value that is NaN or infinite. Finite
// values give the split search's sort a total order (pdqsort.go) and its
// screen finite sums (screen), and keep every threshold a number
// (compiled.go), as Load already demands of a saved forest.
func checkFitInput(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("forest: need non-empty, equal-length X and y (%d, %d)", len(X), len(y))
	}
	nf := len(X[0])
	for i, row := range X {
		if len(row) != nf {
			return fmt.Errorf("forest: ragged feature matrix")
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("forest: feature %d of row %d is %v, not finite", j, i, v)
			}
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("forest: target %d is %v, not finite", i, v)
		}
	}
	return nil
}

// rankTable holds every training row's value rank per feature: ranks
// ascend with the value, and rows whose values compare equal (-0 and +0
// too) share one, so a rank comparison decides exactly what the
// comparison of the values decides. Fit builds one per forest; every
// tree and node reads it.
type rankTable struct {
	nf        int
	ranks     []int32 // row i's ranks are ranks[i*nf : (i+1)*nf]
	levels    []int   // levels[f] is the number of distinct values of f
	maxLevels int     // the largest of levels
}

func newRankTable(X [][]float64) rankTable {
	n, nf := len(X), len(X[0])
	t := rankTable{nf: nf, ranks: make([]int32, n*nf), levels: make([]int, nf)}
	order := make([]int, n)
	for f := range nf {
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(X[a][f], X[b][f]) })
		r := int32(0)
		for k, i := range order {
			if k > 0 && X[order[k-1]][f] < X[i][f] {
				r++
			}
			t.ranks[i*nf+f] = r
		}
		t.levels[f] = int(r) + 1
		t.maxLevels = max(t.maxLevels, t.levels[f])
	}
	return t
}

// row returns row i's ranks, indexed by feature.
func (t *rankTable) row(i int) []int32 { return t.ranks[i*t.nf : (i+1)*t.nf] }

// growTree grows one tree on the rows of X and y that rows lists, in
// that order and with repeats (a bootstrap sample), and reorders rows;
// ranks is X's rank table, which only the screen reads (so it may be
// empty when a node considers one feature).
func growTree(X [][]float64, y []float64, ranks *rankTable, rows []int, p TreeParams, r *rng.RNG) *Tree {
	g := &grower{
		t: &Tree{}, X: X, y: y, ranks: ranks, p: p, r: r,
		pairs: make([]xy, len(rows)), spill: make([]int, len(rows)), all: make([]int, len(X[0])),
	}
	for i := range g.all {
		g.all[i] = i
	}
	// The screen needs two candidates a node. No node has more rows than
	// the root, and the screen tallies only candidates with at most 4n
	// levels.
	if k := g.perNode(); k > 1 {
		g.buckets = make([]bucket, k*min(ranks.maxLevels, 4*len(rows)))
		g.tallies, g.est, g.finalists = make([]tally, 0, k), make([]float64, k), make([]int, 0, k)
	}
	g.grow(rows, 0)
	return g.t
}

// xy is one training row as a node's split search sees it for one
// feature: the feature value and the target.
type xy struct{ x, y float64 }

// bucket is the screen's tally of one feature level in one node.
type bucket struct {
	n   int
	sum float64
}

// tally is one screened candidate: feature f, candidates[k], whose
// levels are counted in buckets[off : off+levels[f]].
type tally struct{ f, k, off int }

// grower grows one tree. Its buffers are sized for the root and reused
// at every node, so the split search allocates nothing per node unless
// MTry is below a quarter of the features (sampleFeatures).
type grower struct {
	t         *Tree
	X         [][]float64
	y         []float64
	ranks     *rankTable
	p         TreeParams
	r         *rng.RNG
	pairs     []xy      // one node's rows sorted by the candidate feature
	spill     []int     // right-hand rows while a node partitions idx in place
	all       []int     // every feature index; with MTry, sampleFeatures permutes it
	buckets   []bucket  // the screen's per-level tallies, zero between nodes
	tallies   []tally   // the candidates the screen estimates
	est       []float64 // the screen's estimate per candidate
	finalists []int     // the candidates the exact scan still sorts
}

// perNode is the number of candidate features bestSplit considers at a
// node: MTry when it samples them, every feature otherwise.
func (g *grower) perNode() int {
	if p := g.p; p.MTry > 0 && p.MTry < len(g.all) && g.r != nil {
		return p.MTry
	}
	return len(g.all)
}

// sampleFeatures returns what g.r.SampleWithoutReplacement(n, k) returns,
// with the same draws, but takes its Perm branch (4k ≥ n, always so at
// the default MTry) in g.all; the result lasts until the next call.
func (g *grower) sampleFeatures(k int) []int {
	if n := len(g.all); k*4 < n {
		return g.r.SampleWithoutReplacement(n, k)
	}
	g.r.PermInto(g.all)
	return g.all[:k]
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

	feat, thr, gain := g.bestSplit(idx, sse)
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
// threshold split: the first (feature, boundary), in candidate order,
// whose gain over the node's parentSSE is the largest, if it is
// positive. Only the candidates the screen keeps are scanned exactly.
func (g *grower) bestSplit(idx []int, parentSSE float64) (feat int, thr, gain float64) {
	p := g.p
	candidates := g.all
	if k := g.perNode(); k < len(g.all) {
		candidates = g.sampleFeatures(k)
	}
	feat, gain = -1, 0

	n := len(idx)
	pairs := g.pairs[:n]
	minLeaf := p.minLeaf()
	for _, f := range g.screen(candidates, idx, parentSSE) {
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

// screen returns, in candidate order, the candidates whose best gain can
// still be the node's best; the rest need no sort.
//
// For each candidate it counts the node's rows and sums their y per level
// and, from those sums, evaluates at every boundary bestSplit evaluates
// (between adjacent present levels, minLeaf rows or more on each side)
// the gain parentSSE - sseL - sseR in the equal form
// parentSSE - Σy² + sumL²/nl + sumR²/nr. Its best over the boundaries,
// e_f, differs from the exact scan's best, x_f, only by rounding: both
// sum the same rows at each boundary, in other orders. With u = 2^-53 and
// S = Σy² over the node's n rows, any summation of up to n of the y is
// off by at most about n·u·Σ|y| ≤ n^1.5·u·√S, and of the y² by n·u·S;
// squaring a side's sum and dividing by its count costs at most
// 2·|sum|·err/count ≤ 2·n^1.5·u·S, three times that on the right, whose
// sum is a difference of two sums; the remaining additions and roundings
// add a few u·S. So the exact scan's gains are within 24·n^1.5·u·S of the
// real ones, the screen's within 20·n^1.5·u·S, and |e_f - x_f| is at most
// 44·n^1.5·u·S. slack is 1000 times 64·n^1.5·u·S.
//
// Let lower = max(0, max_f e_f - slack) ≤ max(0, max_f x_f), the gain
// bestSplit's winner reaches. A candidate with e_f + slack < lower has
// x_f < lower, strictly below the winner's gain, so it can never be the
// first (feature, boundary) to reach it, and dropping it changes neither
// the winner nor its threshold and gain; the argmax of e_f always stays.
// Underflow adds at most a few n·2^-1074 in absolute terms, far below the
// slack, since bestSplit is only reached with parentSSE, and so S, above
// 1e-24.
//
// The rows are tallied row by row across every screened candidate, so no
// two consecutive additions hit one bucket. A level the node lacks is
// scanned like any other: it repeats the boundary before it, to the same
// value, or one too close to an end to count. A lone candidate, a node
// whose n·S overflows (so a square might), and a candidate with more than
// 4n levels go to the exact scan unscreened.
func (g *grower) screen(candidates, idx []int, parentSSE float64) []int {
	n := len(idx)
	if len(candidates) < 2 {
		return candidates
	}
	sumT, sqT := 0.0, 0.0
	for _, i := range idx {
		v := g.y[i]
		sumT += v
		sqT += float64(v * v)
	}
	fn := float64(n)
	if !(fn*sqT <= math.MaxFloat64) {
		return candidates
	}
	slack := float64(64000 * fn * math.Sqrt(fn) * 0x1p-53 * sqT)

	// est[k] is e_f of candidates[k], +Inf for one left unscreened.
	est := g.est[:len(candidates)]
	tallies, levels := g.tallies[:0], 0
	for k, f := range candidates {
		est[k] = math.Inf(1)
		if l := g.ranks.levels[f]; l <= 4*n {
			tallies = append(tallies, tally{f: f, k: k, off: levels})
			levels += l
		}
	}
	b := g.buckets[:levels]
	for _, i := range idx {
		v, row := g.y[i], g.ranks.row(i)
		for _, c := range tallies {
			q := &b[c.off+int(row[c.f])]
			q.n++
			q.sum += v
		}
	}

	lower, minLeaf := 0.0, g.p.minLeaf()
	base := parentSSE - sqT
	for _, c := range tallies {
		best := math.Inf(-1)
		nl, sumL := 0, 0.0
		lv := b[c.off : c.off+g.ranks.levels[c.f]]
		for r := range lv {
			q := lv[r]
			lv[r] = bucket{}
			nl += q.n
			sumL += q.sum
			nr := n - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			sumR := sumT - sumL
			best = max(best, sumL*sumL/float64(nl)+sumR*sumR/float64(nr))
		}
		est[c.k] = base + best
		lower = max(lower, est[c.k]-slack)
	}

	fin := g.finalists[:0]
	for k, f := range candidates {
		if est[k]+slack >= lower {
			fin = append(fin, f)
		}
	}
	g.tallies, g.finalists = tallies, fin
	return fin
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
