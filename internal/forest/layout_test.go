package forest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
)

// referencePredict scores x by walking the nodes of a saved model
// document one by one, independent of the packed layout: the mean over
// trees 0..T-1 of each tree's leaf value, summed from 0.0.
func referencePredict(doc jsonForest, x []float64) float64 {
	sum := 0.0
	for _, jt := range doc.Trees {
		pos := 0
		for jt.Nodes[pos].Feature >= 0 {
			n := jt.Nodes[pos]
			if x[n.Feature] <= n.Threshold {
				pos = n.Left
			} else {
				pos = n.Right
			}
		}
		sum += jt.Nodes[pos].Value
	}
	return sum / float64(len(doc.Trees))
}

// checkContiguous asserts that every tree's nodes are a window of one
// backing array, laid out tree after tree, with 24-byte nodes.
func checkContiguous(t *testing.T, f *Forest) {
	t.Helper()
	size := reflect.TypeOf(node{}).Size()
	if size != 24 {
		t.Fatalf("node is %d bytes, want 24", size)
	}
	for i := 1; i < len(f.trees); i++ {
		prev, cur := f.trees[i-1].nodes, f.trees[i].nodes
		end := reflect.ValueOf(prev).Pointer() + uintptr(len(prev))*size
		if reflect.ValueOf(cur).Pointer() != end {
			t.Fatalf("tree %d's nodes do not follow tree %d's in one array", i, i-1)
		}
	}
}

// TestContiguousPredictMatchesTrees pins the packed forest layout to a
// per-node reference walk bit for bit: Predict, Tree.Predict sums, and
// PredictAll at 1 and 8 workers, for a fitted forest and for the same
// forest after Save→Load. The corrupt-model corpus is still refused
// outright, so no layout is ever built for it.
func TestContiguousPredictMatchesTrees(t *testing.T) {
	r := rng.New(41)
	X, y := synth(180, r)
	fitted, err := Fit(X, y, Params{Trees: 30}, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fitted.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc jsonForest
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// 300 rows: several full predict blocks plus a ragged tail per shard.
	probes := make([][]float64, 300)
	for i := range probes {
		probes[i] = []float64{r.Float64() * 11, r.Float64() * 11, r.Float64()}
	}
	want := make([]float64, len(probes))
	for i, x := range probes {
		want[i] = referencePredict(doc, x)
	}

	for name, f := range map[string]*Forest{"fitted": fitted, "loaded": loaded} {
		checkContiguous(t, f)
		for i, x := range probes {
			if got := f.Predict(x); got != want[i] {
				t.Fatalf("%s: Predict(row %d) = %v, reference %v", name, i, got, want[i])
			}
			sum := 0.0
			for k := 0; k < f.NumTrees(); k++ {
				sum += f.Tree(k).Predict(x)
			}
			if got := sum / float64(f.NumTrees()); got != want[i] {
				t.Fatalf("%s: Tree.Predict mean (row %d) = %v, reference %v", name, i, got, want[i])
			}
		}
		for _, workers := range []int{1, 8} {
			f.params.Workers = workers
			got := f.PredictAll(probes)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: PredictAll(workers=%d) row %d = %v, reference %v", name, workers, i, got[i], want[i])
				}
			}
		}
	}

	for name, tc := range corruptCorpus {
		if f, err := Load(strings.NewReader(tc.doc)); err == nil || f != nil {
			t.Errorf("%s: Load returned a forest (%v) for a corrupt document", name, err)
		}
	}
}
