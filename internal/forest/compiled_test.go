package forest

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
)

// checkCompiled scores cs through f compiled against spc, at every
// worker count given and one row at a time through a Scorer, and
// requires each prediction to equal both PredictAll(EncodeAll(cs)) and a
// Predict loop bit for bit.
func checkCompiled(t *testing.T, name string, f *Forest, spc *space.Space, cs []space.Config, workers ...int) *Compiled {
	t.Helper()
	rows := spc.EncodeAll(cs)
	batch := f.PredictAll(rows)
	var c *Compiled
	for _, w := range workers {
		f.params.Workers = w
		var err error
		if c, err = f.Compile(spc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := c.PredictConfigs(cs)
		sc := c.Scorer()
		for i := range cs {
			want := f.Predict(rows[i])
			if math.Float64bits(got[i]) != math.Float64bits(want) ||
				math.Float64bits(got[i]) != math.Float64bits(batch[i]) {
				t.Fatalf("%s/workers-%d: row %d (%v) compiled %v, Predict %v, PredictAll %v",
					name, w, i, cs[i], got[i], want, batch[i])
			}
			if one := sc.Predict(cs[i]); math.Float64bits(one) != math.Float64bits(want) {
				t.Fatalf("%s: row %d (%v) Scorer %v, Predict %v", name, i, cs[i], one, want)
			}
		}
	}
	return c
}

// maxWords is the widest tree bitvector of c, in 64-bit words.
func maxWords(c *Compiled) int32 {
	widest := int32(0)
	for t := 1; t < len(c.wordOff); t++ {
		widest = max(widest, c.wordOff[t]-c.wordOff[t-1])
	}
	return widest
}

// TestCompiledScorerMatchesWalk holds the compiled scorer to the walk,
// bit for bit, on every kernel space and both mini-app spaces (HPL's
// explicit level lists, RT's 247 parameters): forests fitted on 100 rows,
// and on 300 rows with single-row leaves so some tree has more than 64
// leaves and spans several bitvector words, each at one worker and at
// one per CPU. A single-leaf tree rides along in the small forests.
func TestCompiledScorerMatchesWalk(t *testing.T) {
	sandy := sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1}
	var problems []search.Problem
	for _, k := range kernels.All() {
		problems = append(problems, kernels.NewProblem(k, sandy))
	}
	problems = append(problems,
		miniapps.NewProblem(miniapps.HPL(), machine.Westmere),
		miniapps.NewProblem(miniapps.RT(), machine.Westmere))
	workers := []int{1, runtime.NumCPU()}
	for _, p := range problems {
		spc := p.Space()
		pool := spc.SamplePool(1500, rng.NewNamed(2016, "pool"))
		nf := spc.NumParams()
		for _, tc := range []struct {
			rows   int
			params Params
		}{
			{100, Params{Trees: 20}},
			{300, Params{Trees: 4, MTry: nf, MinLeaf: 1}},
		} {
			name := fmt.Sprintf("%s/rows-%d", p.Name(), tc.rows)
			X, y := encodedTa(p, tc.rows, 7)
			f, err := Fit(X, y, tc.params, rng.NewNamed(7, "forest"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.rows == 100 {
				f.trees = append(f.trees, &Tree{nodes: []node{{val: y[0], feature: -1}}, stats: []nodeStats{{mean: y[0], count: 1}}})
				f.pack()
			}
			c := checkCompiled(t, name, f, spc, pool, workers...)
			if tc.rows == 300 && maxWords(c) < 2 {
				t.Errorf("%s: widest tree has one bitvector word; the multi-word path went untested", name)
			}
		}
	}
}

// TestCompiledScorerHandBuilt covers what fitted forests rarely show: a
// level table that is not monotone in the level (an explicit value list
// out of order), children stored right before left, thresholds that
// equal a level's value, infinite thresholds, and a forest that is only
// single-leaf trees.
func TestCompiledScorerHandBuilt(t *testing.T) {
	spc := space.New(
		space.NewExplicit("x", 8, 2, 16, 1),
		space.NewPowerOfTwo("tile", 0, 3),
		space.NewCategorical("alg", "a", "b", "c"),
	)
	doc := `{"version":1,"features":3,"trees":[
		{"nodes":[{"f":0,"t":8,"l":2,"r":1,"v":0,"n":4},{"f":-1,"v":1,"n":1},{"f":1,"t":1,"l":3,"r":4,"v":0,"n":3},
			{"f":-1,"v":2,"n":1},{"f":2,"t":1.5,"l":5,"r":6,"v":0,"n":2},{"f":-1,"v":3,"n":1},{"f":-1,"v":4,"n":1}]},
		{"nodes":[{"f":-1,"v":0.25,"n":4}]},
		{"nodes":[{"f":0,"t":"+Inf","l":1,"r":2,"v":0,"n":2},{"f":-1,"v":5,"n":1},{"f":-1,"v":6,"n":1}]}]}`
	// JSON has no infinity literal; the third tree's threshold is set
	// after loading instead.
	f, err := Load(strings.NewReader(strings.Replace(doc, `"+Inf"`, "0", 1)))
	if err != nil {
		t.Fatal(err)
	}
	f.trees[2].nodes[0].val = math.Inf(-1)
	all := spc.Enumerate()
	checkCompiled(t, "hand-built", f, spc, all, 1, 3)
	f.trees[2].nodes[0].val = math.Inf(1)
	checkCompiled(t, "hand-built/+inf", f, spc, all, 1)

	leaves, err := Fit([][]float64{{1, 0, 0}, {2, 1, 2}}, []float64{7, 7}, Params{Trees: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	checkCompiled(t, "single-leaf", leaves, spc, all, 1)
}

// TestCompileRefusesWidthMismatch: a space that does not encode to the
// forest's width is refused at compile time rather than mis-scored.
func TestCompileRefusesWidthMismatch(t *testing.T) {
	f, err := Fit([][]float64{{1, 0}, {2, 1}, {3, 0}}, []float64{1, 2, 3}, Params{Trees: 2}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFeatures() != 2 {
		t.Fatalf("NumFeatures = %d, want 2", f.NumFeatures())
	}
	if _, err := f.Compile(space.New(space.NewBoolean("a"))); err == nil {
		t.Fatal("compiling a 2-feature forest against a 1-parameter space succeeded")
	}
}
