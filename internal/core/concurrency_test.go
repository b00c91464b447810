package core

import (
	"sync"
	"testing"

	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/search"
)

// hammer calls m.Predict on every probe from many goroutines and checks
// the answers never deviate from a serial reference — the search.Model
// goroutine-safety contract, pinned under -race.
func hammer(t *testing.T, name string, m search.Model, probes [][]float64) {
	t.Helper()
	want := make([]float64, len(probes))
	for i, x := range probes {
		want[i] = m.Predict(x)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 15; iter++ {
				for i, x := range probes {
					if m.Predict(x) != want[i] {
						errs <- name + ": Predict diverged under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestModelsConcurrentPredict hammers every in-tree model family from
// many goroutines at once: KNN (per-call scratch), linear (read-only
// weights), single tree, and the forest-backed Surrogate, including its
// sharded batch path.
func TestModelsConcurrentPredict(t *testing.T) {
	spc := ablSpace()
	ds := linearDataset(spc, 80, 3)
	probes := make([][]float64, 60)
	r := rng.New(77)
	for i := range probes {
		probes[i] = spc.Encode(spc.Random(r))
	}

	knn, err := FitKNN(ds, spc, 5)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, "knn", knn, probes)

	lin, err := FitLinear(ds, spc)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, "linear", lin, probes)

	tree, err := FitSingleTree(ds, spc, 2)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, "tree", tree, probes)

	sur, err := FitSurrogate(ds, spc, "test", forest.Params{Trees: 15}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, "surrogate", sur, probes)

	// The surrogate's batch path under concurrent callers.
	want := sur.PredictAll(probes)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := sur.PredictAll(probes)
			for i := range got {
				if got[i] != want[i] {
					t.Error("surrogate: PredictAll diverged under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSurrogateConcurrentConfigScoring hammers one shared Surrogate's
// compiled config scorer from many goroutines, each scoring the whole
// pool (sharded over the forest's workers) and single configurations
// through a ConfigScorer of its own (RSp's per-candidate path), against
// the walk over encoded rows.
func TestSurrogateConcurrentConfigScoring(t *testing.T) {
	spc := ablSpace()
	ds := linearDataset(spc, 80, 3)
	sur, err := FitSurrogate(ds, spc, "test", forest.Params{Trees: 15, Workers: 4}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pool := spc.SamplePool(500, rng.New(78))
	want := sur.PredictAll(spc.EncodeAll(pool))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			score := sur.ConfigScorer(spc)
			for iter := 0; iter < 5; iter++ {
				got := search.ScoreConfigs(sur, spc, pool)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("goroutine %d: pool row %d scored %v, walk %v", g, i, got[i], want[i])
						return
					}
				}
				for i := g; i < len(pool); i += 8 {
					if v := score(pool[i]); v != want[i] {
						t.Errorf("goroutine %d: config %d scored %v alone, walk %v", g, i, v, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
