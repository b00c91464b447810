package forest

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/parallel"
	"repro/internal/space"
)

// Compiled is a fitted forest compiled against a space's encoding, so a
// configuration is scored straight from its level indices without
// encoding it first. It is a view derived from the packed node array,
// built once, and like the forest it is immutable and safe for
// concurrent use.
//
// The layout is QuickScorer's (Lucchese et al., SIGIR 2015) with the
// thresholds resolved per level. Each tree's leaves are numbered left to
// right and get a bitvector of ⌈leaves/64⌉ words. An internal node whose
// test x[f] <= thr is false at a row sends the row right, so none of the
// leaves of its left subtree can be the exit leaf; its mask clears their
// bits. A feature's masks are ordered by ascending threshold, so the
// false tests at any value are a prefix of them, and because every
// encoded feature is a function of one parameter's level, the length of
// that prefix is a table lookup by level. Scoring a row ANDs each
// feature's prefix into the trees' bitvectors; a tree's exit leaf is its
// leftmost surviving leaf, which is the leaf the walk from the root
// reaches. The trees are then summed 0..T-1 from 0.0 and divided by T,
// as Predict and PredictAll do, so every prediction is bit-identical to
// theirs.
type Compiled struct {
	nf       int
	features []compiledFeature // only the features some split tests
	wordOff  []int32           // tree t's words are [wordOff[t], wordOff[t+1])
	leafOff  []int32           // tree t's leaves start at leaves[leafOff[t]]
	leaves   []float64         // leaf values, tree by tree, left to right
	workers  int
}

// compiledFeature holds one feature's node masks, ordered by ascending
// threshold, and for each level how many of them test false there.
type compiledFeature struct {
	feature int
	masks   []leafMask
	falseAt []int32
}

// leafMask clears, in one bitvector word, the leaves of an internal
// node's left subtree. A node whose left subtree spans several words
// contributes one mask per word.
type leafMask struct {
	mask uint64
	word int32
}

// Compile compiles f against spc's encoding (space.EncodedLevels). It
// fails when spc does not encode to f's feature count.
func (f *Forest) Compile(spc *space.Space) (*Compiled, error) {
	if spc.NumParams() != f.nf {
		return nil, fmt.Errorf("forest: compiling a %d-feature forest against a %d-parameter space", f.nf, spc.NumParams())
	}
	type split struct {
		thr float64
		m   leafMask
	}
	byFeature := make([][]split, f.nf)
	c := &Compiled{
		nf:      f.nf,
		wordOff: make([]int32, 1, len(f.trees)+1),
		leafOff: make([]int32, 0, len(f.trees)),
		workers: f.params.Workers,
	}
	for _, t := range f.trees {
		base := int32(len(c.leaves))
		word0 := c.wordOff[len(c.wordOff)-1]
		c.leafOff = append(c.leafOff, base)
		// visit numbers the subtree's leaves left to right and returns
		// their range [lo, hi) within the tree.
		var visit func(pos int32) (lo, hi int)
		visit = func(pos int32) (lo, hi int) {
			n := &t.nodes[pos]
			if n.feature < 0 {
				lo = len(c.leaves) - int(base)
				c.leaves = append(c.leaves, n.val)
				return lo, lo + 1
			}
			lo, mid := visit(n.left)
			_, hi = visit(n.right)
			for w := lo / 64; w*64 < mid; w++ {
				left := wordBits(lo-w*64, mid-w*64)
				byFeature[n.feature] = append(byFeature[n.feature],
					split{thr: n.val, m: leafMask{mask: ^left, word: word0 + int32(w)}})
			}
			return lo, hi
		}
		_, nl := visit(0)
		c.wordOff = append(c.wordOff, word0+int32((nl+63)/64))
	}
	for feat, splits := range byFeature {
		if len(splits) == 0 {
			continue
		}
		// Thresholds are never NaN (Fit takes midpoints of finite
		// values and Load refuses NaN), and cmp.Compare orders the rest.
		slices.SortStableFunc(splits, func(a, b split) int { return cmp.Compare(a.thr, b.thr) })
		cf := compiledFeature{feature: feat, masks: make([]leafMask, len(splits))}
		for k, s := range splits {
			cf.masks[k] = s.m
		}
		for _, v := range spc.EncodedLevels(feat) {
			// The walk's test is v <= thr; the masks before the first
			// threshold that passes it are exactly the false tests.
			k := sort.Search(len(splits), func(k int) bool { return v <= splits[k].thr })
			cf.falseAt = append(cf.falseAt, int32(k))
		}
		c.features = append(c.features, cf)
	}
	return c, nil
}

// wordBits returns a word with bits [lo, hi) set, both clamped to 0..64.
func wordBits(lo, hi int) uint64 {
	lo, hi = max(lo, 0), min(hi, 64)
	if lo >= hi {
		return 0
	}
	return (^uint64(0) >> (64 - (hi - lo))) << lo
}

// PredictConfigs scores every configuration, which must come from the
// space c was compiled against: out[i] is bit-identical to
// Forest.Predict(spc.Encode(cs[i])). Like PredictAll it shards the rows
// over Params.Workers goroutines, each with its own bitvector scratch
// and writing disjoint indices of the output, so the result does not
// depend on the worker count.
func (c *Compiled) PredictConfigs(cs []space.Config) []float64 {
	out := make([]float64, len(cs))
	workers := min(parallel.Workers(c.workers), len(cs))
	parallel.Do(workers, workers, func(s int) {
		lo, hi := parallel.Shard(len(cs), workers, s)
		bv := make([]uint64, c.wordOff[len(c.wordOff)-1])
		for i := lo; i < hi; i++ {
			out[i] = c.predict(bv, cs[i])
		}
	})
	return out
}

// predict scores one configuration using bv as the trees' bitvectors.
func (c *Compiled) predict(bv []uint64, cfg space.Config) float64 {
	if len(cfg) != c.nf {
		panic(fmt.Sprintf("forest: predict with %d features, trained on %d", len(cfg), c.nf))
	}
	for i := range bv {
		bv[i] = ^uint64(0)
	}
	for k := range c.features {
		cf := &c.features[k]
		for _, m := range cf.masks[:cf.falseAt[cfg[cf.feature]]] {
			bv[m.word] &= m.mask
		}
	}
	sum := 0.0
	for t, base := range c.leafOff {
		// The exit leaf always survives, so some word of the tree is
		// non-zero and its lowest set bit is the exit leaf.
		w := c.wordOff[t]
		for bv[w] == 0 {
			w++
		}
		leaf := int(w-c.wordOff[t])*64 + bits.TrailingZeros64(bv[w])
		sum += c.leaves[int(base)+leaf]
	}
	return sum / float64(len(c.leafOff))
}
