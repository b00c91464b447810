// Package crashtest is a crash-recovery harness for journaled searches:
// it kills runs at randomized byte and evaluation offsets, resumes them,
// and asserts the recovered result is byte-identical to an uninterrupted
// run — records, statuses, best, and the best-so-far trajectory.
//
// Two campaigns:
//
//   - Truncation: complete a journaled run, then cut its log at random
//     byte offsets (including mid-frame, simulating a torn write from a
//     crash or power loss) and resume each copy. Half the copies keep
//     the completed run's checkpoint, whose cursor now points beyond the
//     truncated log — exercising the guard that ignores checkpoints
//     ahead of the durable entries.
//   - Graceful cancellation: cancel the context after a random number of
//     evaluations and resume by replay, which serves and verifies the
//     journaled prefix.
//
// The in-process SIGKILL trial lives in the package's tests (it re-execs
// the test binary).

//lint:file-ignore ctxflow crash-recovery harness: each trial deliberately roots its own context to model independent process lifetimes
//lint:file-ignore floatcmp resume correctness is defined as bit-identical results, so exact float equality is the property under test
package crashtest

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// Trial describes one journaled search under test.
type Trial struct {
	// Plain runs the search without journaling: the ground truth.
	Plain func(ctx context.Context) *search.Result
	// Journaled runs (or resumes) the journaled search in dir.
	Journaled func(ctx context.Context, dir string, p search.Problem) (*search.Result, *journal.RunInfo, error)
	// NewProblem returns a fresh, deterministic problem instance.
	NewProblem func() search.Problem
}

// JournaledRS runs (or resumes) random search over p through the
// journal in dir: the journaled form of
// search.RS(ctx, p, nmax, rng.New(seed)).
func JournaledRS(ctx context.Context, dir string, p search.Problem, nmax int, seed uint64,
	opts journal.WrapOptions) (*search.Result, *journal.RunInfo, error) {

	meta := journal.Meta{Problem: p.Name(), Algorithm: "RS", Seed: seed, NMax: nmax}
	return journal.Run(ctx, dir, meta, p, opts, func(ctx context.Context, p search.Problem) *search.Result {
		return search.RS(ctx, p, nmax, rng.New(seed))
	})
}

// Compare checks that two results are byte-identical in every field a
// resumed run must reproduce: record sequence (configs, run times,
// costs, elapsed clock, statuses, retries), skip count, per-status
// counts, best record, and the best-so-far trajectory.
func Compare(want, got *search.Result) error {
	if got.Algorithm != want.Algorithm || got.Problem != want.Problem {
		return fmt.Errorf("identity differs: got %s/%s want %s/%s",
			got.Algorithm, got.Problem, want.Algorithm, want.Problem)
	}
	if got.Skipped != want.Skipped {
		return fmt.Errorf("skipped differs: got %d want %d", got.Skipped, want.Skipped)
	}
	if len(got.Records) != len(want.Records) {
		return fmt.Errorf("record count differs: got %d want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		if w.Config.Key() != g.Config.Key() {
			return fmt.Errorf("record %d config differs: got %v want %v", i, g.Config, w.Config)
		}
		if !sameFloat(w.RunTime, g.RunTime) || w.Cost != g.Cost || w.Elapsed != g.Elapsed {
			return fmt.Errorf("record %d numbers differ: got (%v,%v,%v) want (%v,%v,%v)",
				i, g.RunTime, g.Cost, g.Elapsed, w.RunTime, w.Cost, w.Elapsed)
		}
		if w.Status != g.Status || w.Retries != g.Retries {
			return fmt.Errorf("record %d status differs: got (%v,%d) want (%v,%d)",
				i, g.Status, g.Retries, w.Status, w.Retries)
		}
	}
	if want.Counts() != got.Counts() {
		return fmt.Errorf("counts differ: got %+v want %+v", got.Counts(), want.Counts())
	}
	wb, wi, wok := want.Best()
	gb, gi, gok := got.Best()
	if wok != gok || wi != gi || (wok && wb.RunTime != gb.RunTime) {
		return fmt.Errorf("best differs: got (%v,%d,%v) want (%v,%d,%v)",
			gb.RunTime, gi, gok, wb.RunTime, wi, wok)
	}
	wbsf, gbsf := want.BestSoFar(), got.BestSoFar()
	for i := range wbsf {
		if !sameFloat(wbsf[i], gbsf[i]) {
			return fmt.Errorf("best-so-far differs at %d: got %v want %v", i, gbsf[i], wbsf[i])
		}
	}
	return nil
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1))
}

// Truncations runs the torn-write campaign: kills randomized byte
// offsets into the journal log (first frame, mid-frame, torn final
// frame) and asserts every resumed copy reproduces the reference run.
// Returns the number of kill points exercised.
func (tr Trial) Truncations(scratch string, kills int, seed uint64) (int, error) {
	ref := tr.Plain(context.Background())

	refDir := filepath.Join(scratch, "ref")
	full, info, err := tr.Journaled(context.Background(), refDir, tr.NewProblem())
	if err != nil {
		return 0, fmt.Errorf("reference journaled run: %w", err)
	}
	if !info.Done {
		return 0, fmt.Errorf("reference journaled run did not complete: %+v", info)
	}
	if err := Compare(ref, full); err != nil {
		return 0, fmt.Errorf("journaled run differs from plain run before any crash: %w", err)
	}

	logBytes, err := os.ReadFile(filepath.Join(refDir, journal.LogFileName))
	if err != nil {
		return 0, err
	}
	metaBytes, err := os.ReadFile(filepath.Join(refDir, journal.MetaFileName))
	if err != nil {
		return 0, err
	}
	cpBytes, err := os.ReadFile(filepath.Join(refDir, journal.CheckpointFileName))
	if err != nil {
		return 0, err
	}
	size := len(logBytes)
	if size == 0 {
		return 0, fmt.Errorf("reference journal log is empty")
	}

	r := rng.New(seed)
	offsets := []int{0, size - 1, size - 3} // empty log, torn final frame twice
	for len(offsets) < kills {
		offsets = append(offsets, r.Intn(size))
	}

	for i, off := range offsets {
		dir := filepath.Join(scratch, fmt.Sprintf("kill-%03d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return i, err
		}
		if err := os.WriteFile(filepath.Join(dir, journal.MetaFileName), metaBytes, 0o644); err != nil {
			return i, err
		}
		if err := os.WriteFile(filepath.Join(dir, journal.LogFileName), logBytes[:off], 0o644); err != nil {
			return i, err
		}
		// Half the kills keep the completed run's checkpoint: its cursor
		// now points beyond the truncated log, and recovery must ignore
		// it rather than trust it.
		if i%2 == 0 {
			if err := os.WriteFile(filepath.Join(dir, journal.CheckpointFileName), cpBytes, 0o644); err != nil {
				return i, err
			}
		}
		res, rinfo, err := tr.Journaled(context.Background(), dir, tr.NewProblem())
		if err != nil {
			return i, fmt.Errorf("kill at byte %d/%d: resume: %w", off, size, err)
		}
		if !rinfo.Done {
			return i, fmt.Errorf("kill at byte %d/%d: resume did not complete: %+v", off, size, rinfo)
		}
		if err := Compare(ref, res); err != nil {
			return i, fmt.Errorf("kill at byte %d/%d (prior=%d entries): %w", off, size, rinfo.Prior, err)
		}
		// A second open of the now-complete journal must short-circuit to
		// the same result without evaluating anything.
		again, ainfo, err := tr.Journaled(context.Background(), dir, tr.NewProblem())
		if err != nil {
			return i, fmt.Errorf("kill at byte %d/%d: reopen: %w", off, size, err)
		}
		if !ainfo.Done {
			return i, fmt.Errorf("kill at byte %d/%d: reopened journal not done", off, size)
		}
		if err := Compare(ref, again); err != nil {
			return i, fmt.Errorf("kill at byte %d/%d: reopened journal differs: %w", off, size, err)
		}
	}
	return len(offsets), nil
}

// canceller cancels its context after n completed evaluation requests,
// producing a graceful drain at a deterministic evaluation boundary.
type canceller struct {
	p      search.Problem
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *canceller) Name() string        { return c.p.Name() }
func (c *canceller) Space() *space.Space { return c.p.Space() }
func (c *canceller) Evaluate(cfg space.Config) (float64, float64) {
	out := c.EvaluateFull(context.Background(), cfg)
	return out.RunTime, out.Cost
}
func (c *canceller) EvaluateFull(ctx context.Context, cfg space.Config) search.Outcome {
	if c.seen >= c.n {
		c.cancel()
	}
	c.seen++
	return search.EvaluateFull(ctx, c.p, cfg)
}

// Cancellations runs the graceful-interruption campaign: cancel after a
// random number of evaluations, resume, and compare.
func (tr Trial) Cancellations(scratch string, points, maxEvals int, seed uint64) (int, error) {
	ref := tr.Plain(context.Background())
	r := rng.New(seed)
	for i := 0; i < points; i++ {
		n := 1 + r.Intn(maxEvals-1)
		dir := filepath.Join(scratch, fmt.Sprintf("cancel-%03d", i))
		ctx, cancel := context.WithCancel(context.Background())
		partial, info, err := tr.Journaled(ctx, dir, &canceller{p: tr.NewProblem(), n: n, cancel: cancel})
		cancel()
		if err != nil {
			return i, fmt.Errorf("cancel after %d evals: interrupted run: %w", n, err)
		}
		if info.Done {
			return i, fmt.Errorf("cancel after %d evals: interrupted run claims completion", n)
		}
		// The checkpoint is a completion marker: an interrupted run must
		// leave only its log behind.
		if _, err := os.Stat(filepath.Join(dir, journal.CheckpointFileName)); !errors.Is(err, fs.ErrNotExist) {
			return i, fmt.Errorf("cancel after %d evals: interrupted run left a checkpoint (stat: %v)", n, err)
		}
		for j := range partial.Records {
			if partial.Records[j].Config.Key() != ref.Records[j].Config.Key() {
				return i, fmt.Errorf("cancel after %d evals: partial record %d diverges before resume", n, j)
			}
		}
		res, rinfo, err := tr.Journaled(context.Background(), dir, tr.NewProblem())
		if err != nil {
			return i, fmt.Errorf("cancel after %d evals: resume: %w", n, err)
		}
		if !rinfo.Done {
			return i, fmt.Errorf("cancel after %d evals: resume did not complete: %+v", n, rinfo)
		}
		if err := Compare(ref, res); err != nil {
			return i, fmt.Errorf("cancel after %d evals (prior=%d): %w", n, rinfo.Prior, err)
		}
	}
	return points, nil
}
