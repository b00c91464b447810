package journal

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/search"
)

// quadModel is a deterministic surrogate standing in for a fitted
// forest: replay only needs predictions that recompute identically.
type quadModel struct{}

func (quadModel) Predict(x []float64) float64 {
	s := 1.0
	for i, v := range x {
		d := v - 0.35
		s += d * d * float64(i+1)
	}
	return s
}

// parentFormat is the fixture directory of journals written before
// checkpoint.json became a write-once completion marker (commit
// 3e77e5c). Each journal was produced by that code from the searches
// below; the files are committed unchanged.
const parentFormat = "testdata/parent-format"

// copyFixture copies one fixture journal into a fresh directory, so a
// resume may append to it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{MetaFileName, LogFileName, CheckpointFileName} {
		data, err := os.ReadFile(filepath.Join(parentFormat, name, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestParentFormatJournalsResume resumes journals in the older format.
// The interrupted random search carries a done=false checkpoint with a
// serialized sampler state, which this code ignores: it must resume by
// replay to the uninterrupted result. The completed pruning search must
// still short-circuit with its skipped count restored.
func TestParentFormatJournalsResume(t *testing.T) {
	t.Run("interrupted RS", func(t *testing.T) {
		const nmax, seed = 30, 41
		dir := copyFixture(t, "rs-interrupted")
		var cp struct {
			Done   bool              `json:"done"`
			States map[string][]byte `json:"states"`
		}
		data, err := os.ReadFile(filepath.Join(dir, CheckpointFileName))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &cp); err != nil || cp.Done || len(cp.States) == 0 {
			t.Fatalf("fixture checkpoint is not an interrupted one with states: %s (%v)", data, err)
		}

		ref := search.RS(context.Background(), newFaulty(seed), nmax, rng.New(seed))
		got, info, err := runRS(context.Background(), dir, newFaulty(seed), nmax, seed, WrapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Resumed || !info.Done || info.Prior != 12 {
			t.Fatalf("resume info = %+v, want resumed, done, prior 12", info)
		}
		sameResults(t, ref, got)
	})

	t.Run("completed RSp", func(t *testing.T) {
		const nmax, seed = 25, 43
		drive := func(ctx context.Context, p search.Problem) *search.Result {
			return search.RSp(ctx, p, quadModel{},
				search.RSpOptions{NMax: nmax, PoolSize: 400, DeltaPct: 30},
				rng.NewNamed(seed, "stream"), rng.NewNamed(seed, "pool"))
		}
		ref := drive(context.Background(), newFaulty(seed))
		if ref.Skipped == 0 {
			t.Fatal("reference run skipped nothing; the restored count would prove nothing")
		}
		dir := copyFixture(t, "rsp-completed")
		counter := newBowl()
		p := search.NewResilient(faults.Wrap(counter, faults.Rates{}, seed), search.ResilientOptions{})
		meta := Meta{Problem: "bowl", Algorithm: "RSp", Seed: seed, NMax: nmax}
		got, info, err := Run(context.Background(), dir, meta, p, WrapOptions{}, drive)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Resumed || !info.Done {
			t.Fatalf("info = %+v", info)
		}
		if counter.evals != 0 {
			t.Fatalf("completed journal still evaluated %d configs", counter.evals)
		}
		sameResults(t, ref, got)
	})
}

// FuzzOpen writes arbitrary bytes as a journal's three files. Open and
// Records must reject them with an error or recover entries indexed
// 0..n-1; they must never panic.
func FuzzOpen(f *testing.F) {
	for _, name := range []string{"rs-interrupted", "rsp-completed"} {
		var files [3][]byte
		for i, fn := range []string{LogFileName, MetaFileName, CheckpointFileName} {
			data, err := os.ReadFile(filepath.Join(parentFormat, name, fn))
			if err != nil {
				f.Fatal(err)
			}
			files[i] = data
		}
		f.Add(files[0], files[1], files[2])
	}
	f.Fuzz(func(t *testing.T, log, meta, checkpoint []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{
			LogFileName: log, MetaFileName: meta, CheckpointFileName: checkpoint,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		defer s.Close()
		recs, err := s.Records()
		if err != nil {
			return
		}
		if len(recs) != s.Len() {
			t.Fatalf("%d records for %d entries", len(recs), s.Len())
		}
		for i, e := range s.entries {
			if e.Index != i {
				t.Fatalf("entry %d carries index %d", i, e.Index)
			}
		}
		if s.Done() {
			if _, err := s.Result(); err != nil {
				t.Fatalf("completed journal's records load but its result does not: %v", err)
			}
		}
	})
}
