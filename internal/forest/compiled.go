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
// bits. Every encoded feature is a function of one parameter's level, so
// which of a feature's tests are false is fixed by the level, and their
// masks are ANDed ahead of time into one mask per bitvector word they
// touch. Scoring a row ANDs each feature's merged masks for its level
// into the trees' bitvectors; a tree's exit leaf is its leftmost
// surviving leaf, which is the leaf the walk from the root reaches. The
// trees are then summed 0..T-1 from 0.0 and divided by T, as Predict and
// PredictAll do, so every prediction is bit-identical to theirs.
type Compiled struct {
	nf       int
	features []compiledFeature // only the features some split tests
	masks    []leafMask        // every (feature, level)'s merged masks
	wordOff  []int32           // tree t's words are [wordOff[t], wordOff[t+1])
	leafOff  []int32           // tree t's leaves start at leaves[leafOff[t]]
	leaves   []float64         // leaf values, tree by tree, left to right
	workers  int
}

// compiledFeature holds, for each level of one feature, the span of
// Compiled.masks that clears every leaf its false tests rule out.
type compiledFeature struct {
	feature int
	spans   []maskSpan
}

// maskSpan is the range masks[lo:hi]. Levels whose false tests are the
// same share one span.
type maskSpan struct{ lo, hi int32 }

// leafMask clears leaves in one bitvector word. A node whose left
// subtree spans several words contributes one mask per word, and the
// merged masks of a (feature, level) hold each word at most once.
type leafMask struct {
	mask uint64
	word int32
}

// split is one internal node's test as Compile gathers it: the
// threshold and one word of the mask clearing its left subtree.
type split struct {
	thr float64
	m   leafMask
}

// featureTests is one feature's node tests, ready to merge per level.
type featureTests struct {
	feature int
	splits  []split // ordered by threshold
	nfalse  []int32 // per level, how many of splits test false there
	byFalse []int32 // the levels, ordered by nfalse
}

// Compile compiles f against spc's encoding (space.EncodedLevels). It
// fails when spc does not encode to f's feature count.
func (f *Forest) Compile(spc *space.Space) (*Compiled, error) {
	if spc.NumParams() != f.nf {
		return nil, fmt.Errorf("forest: compiling a %d-feature forest against a %d-parameter space", f.nf, spc.NumParams())
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

	// Every per-level table is a window of one backing array.
	nlevels := 0
	for feat, splits := range byFeature {
		if len(splits) > 0 {
			nlevels += len(spc.EncodedLevels(feat))
		}
	}
	spans := make([]maskSpan, nlevels)
	perLevel := make([]int32, 2*nlevels)
	tests := make([]featureTests, 0, f.nf)
	for feat, splits := range byFeature {
		if len(splits) == 0 {
			continue
		}
		// Thresholds are never NaN (Fit takes midpoints of the finite
		// values checkFitInput admits, and Load refuses NaN), and
		// cmp.Compare orders the rest.
		// Ordered by threshold, the tests false at a level are a prefix.
		slices.SortStableFunc(splits, func(a, b split) int { return cmp.Compare(a.thr, b.thr) })
		levels := spc.EncodedLevels(feat)
		ft := featureTests{feature: feat, splits: splits,
			nfalse: perLevel[:len(levels):len(levels)], byFalse: perLevel[len(levels) : 2*len(levels) : 2*len(levels)]}
		perLevel = perLevel[2*len(levels):]
		for l, v := range levels {
			// The walk's test is v <= thr; the masks before the first
			// threshold that passes it are exactly the false tests.
			ft.nfalse[l] = int32(sort.Search(len(splits), func(k int) bool { return v <= splits[k].thr }))
			ft.byFalse[l] = int32(l)
		}
		slices.SortFunc(ft.byFalse, func(a, b int32) int { return cmp.Compare(ft.nfalse[a], ft.nfalse[b]) })
		tests = append(tests, ft)
		c.features = append(c.features, compiledFeature{feature: feat, spans: spans[:len(levels):len(levels)]})
		spans = spans[len(levels):]
	}

	// Merge twice: once into scratch to size the table exactly, then
	// into the table.
	m := merger{acc: make([]uint64, c.words())}
	for i := range m.acc {
		m.acc[i] = ^uint64(0)
	}
	var scratch []leafMask
	n := 0
	for k := range tests {
		scratch = m.merge(&tests[k], scratch[:0], c.features[k].spans)
		n += len(scratch)
	}
	c.masks = make([]leafMask, 0, n)
	for k := range tests {
		c.masks = m.merge(&tests[k], c.masks, c.features[k].spans)
	}
	return c, nil
}

// merger ANDs one feature's masks at a time. acc is the running AND per
// word; every mask clears at least one leaf, so a word still all ones is
// one no mask has touched yet, and touched lists the words that are not.
type merger struct {
	acc     []uint64
	touched []int32
}

// merge visits ft's levels by prefix length, so the prefix only grows.
// Each new length ANDs in its new masks and appends to out the merged
// mask of every word touched so far; spans[l] is set to level l's range
// of out, and levels with the same prefix share one. acc is all ones
// again on return.
func (m *merger) merge(ft *featureTests, out []leafMask, spans []maskSpan) []leafMask {
	var done int32
	var cur maskSpan
	for _, l := range ft.byFalse {
		if k := ft.nfalse[l]; k > done {
			for _, s := range ft.splits[done:k] {
				if m.acc[s.m.word] == ^uint64(0) {
					m.touched = append(m.touched, s.m.word)
				}
				m.acc[s.m.word] &= s.m.mask
			}
			done = k
			cur = maskSpan{lo: int32(len(out))}
			for _, w := range m.touched {
				out = append(out, leafMask{mask: m.acc[w], word: w})
			}
			cur.hi = int32(len(out))
		}
		spans[l] = cur
	}
	for _, w := range m.touched {
		m.acc[w] = ^uint64(0)
	}
	m.touched = m.touched[:0]
	return out
}

// wordBits returns a word with bits [lo, hi) set, both clamped to 0..64.
func wordBits(lo, hi int) uint64 {
	lo, hi = max(lo, 0), min(hi, 64)
	if lo >= hi {
		return 0
	}
	return (^uint64(0) >> (64 - (hi - lo))) << lo
}

// words is the total bitvector length of all trees, in 64-bit words.
func (c *Compiled) words() int32 { return c.wordOff[len(c.wordOff)-1] }

// PredictConfigs scores every configuration, which must come from the
// space c was compiled against: out[i] is bit-identical to
// Forest.Predict(spc.Encode(cs[i])). Like PredictAll it shards the rows
// over Params.Workers goroutines, each with its own Scorer and writing
// disjoint indices of the output, so the result does not depend on the
// worker count.
func (c *Compiled) PredictConfigs(cs []space.Config) []float64 {
	out := make([]float64, len(cs))
	workers := min(parallel.Workers(c.workers), len(cs))
	parallel.Do(workers, workers, func(s int) {
		lo, hi := parallel.Shard(len(cs), workers, s)
		sc := c.Scorer()
		for i := lo; i < hi; i++ {
			out[i] = sc.Predict(cs[i])
		}
	})
	return out
}

// Scorer scores configurations one at a time on the calling goroutine
// with its own bitvector scratch, so a scan that scores one candidate at
// a time allocates nothing per candidate. Unlike Compiled it is not safe
// for concurrent use; each goroutine takes its own from Compiled.Scorer.
type Scorer struct {
	c  *Compiled
	bv []uint64
}

// Scorer returns a new single-goroutine scorer over c.
func (c *Compiled) Scorer() *Scorer {
	return &Scorer{c: c, bv: make([]uint64, c.words())}
}

// Predict scores one configuration of the space c was compiled against,
// bit-identically to Forest.Predict(spc.Encode(cfg)).
func (s *Scorer) Predict(cfg space.Config) float64 {
	c, bv := s.c, s.bv
	if len(cfg) != c.nf {
		panic(fmt.Sprintf("forest: predict with %d features, trained on %d", len(cfg), c.nf))
	}
	for i := range bv {
		bv[i] = ^uint64(0)
	}
	for k := range c.features {
		cf := &c.features[k]
		sp := cf.spans[cfg[cf.feature]]
		for _, m := range c.masks[sp.lo:sp.hi] {
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
