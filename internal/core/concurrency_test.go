package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/machine"
	"repro/internal/obs"
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

// tracedTargetHalf runs pre on tgt traced and untraced, checks the two
// outcomes agree, and returns the outcome's key with the trace's events,
// their wall-clock Dur fields zeroed.
func tracedTargetHalf(t *testing.T, pre *Prelude, tgt func() search.Problem) (string, []obs.Event) {
	t.Helper()
	sink := &obs.MemorySink{}
	traced, err := pre.Run(obs.WithTracer(context.Background(), obs.New(sink)), tgt())
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := pre.Run(context.Background(), tgt())
	if err != nil {
		t.Fatal(err)
	}
	key := outcomeKey(traced)
	if got := outcomeKey(untraced); got != key {
		t.Fatalf("%s: untraced outcome differs from traced:\n%s\nwant\n%s", traced.Target, got, key)
	}
	events := sink.Events()
	for i := range events {
		events[i].Dur = 0
	}
	return key, events
}

// TestTargetHalfConcurrentMatchesSerial: on a search.Pure target the five
// target searches run concurrently within the prelude's Forest.Workers
// bound, and at every width the outcome equals the serial (width 1) one
// bit for bit — records, speedups, failure counts, correlations — and a
// traced run emits the serial run's event sequence, Dur fields aside.
// The same holds for a degraded prelude's RS fallbacks, and for a
// faults-wrapped target, which is not Pure and so runs serially at any
// width (its injector counts attempts across searches and is not safe
// for concurrent use, which -race would report).
func TestTargetHalfConcurrentMatchesSerial(t *testing.T) {
	type target struct {
		name string
		src  search.Problem
		tgt  func() search.Problem
	}
	var targets []target
	for _, wl := range []string{"MM", "ATAX", "COR", "LU", "HPL", "RT"} {
		tgt := runOn(t, wl, machine.Sandybridge)
		targets = append(targets, target{wl, runOn(t, wl, machine.Westmere), func() search.Problem { return tgt }})
	}
	broken := search.NewResilient(
		faults.Wrap(problem(t, "LU", machine.Westmere), faults.Rates{CompileFail: 0.97}, 77),
		search.ResilientOptions{Retries: 1})
	bare := problem(t, "LU", machine.Sandybridge)
	targets = append(targets,
		target{"degraded", broken, func() search.Problem { return bare }},
		target{"faulted", problem(t, "LU", machine.Westmere), func() search.Problem {
			// A fresh injector per run: its attempt counts carry over
			// from one search to the next.
			return search.NewResilient(
				faults.Wrap(bare, faults.Profile(machine.Sandybridge.Name).ScaledTo(0.3), 6),
				search.ResilientOptions{Retries: 2, Backoff: 0.5})
		}})
	for _, tc := range targets {
		for _, seed := range []uint64{3, 2016} {
			opt := smallOpts(seed)
			opt.Forest.Workers = 1
			pre, err := Prepare(context.Background(), tc.src, opt)
			if err != nil {
				t.Fatal(err)
			}
			if degraded := pre.Surrogate == nil; degraded != (tc.name == "degraded") {
				t.Fatalf("%s seed %d: prelude degraded %v", tc.name, seed, degraded)
			}
			wantKey, wantEvents := tracedTargetHalf(t, pre, tc.tgt)
			for _, width := range []int{2, 8} {
				wide := *pre
				wide.opt.Forest.Workers = width
				key, events := tracedTargetHalf(t, &wide, tc.tgt)
				if key != wantKey {
					t.Errorf("%s seed %d width %d: outcome differs from width 1:\n%s\nwant\n%s",
						tc.name, seed, width, key, wantKey)
				}
				if !reflect.DeepEqual(events, wantEvents) {
					t.Errorf("%s seed %d width %d: %d traced events differ from width 1's %d",
						tc.name, seed, width, len(events), len(wantEvents))
				}
			}
		}
	}
}
