package journal

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// bowl is a synthetic convex problem with a deterministic evaluator.
type bowl struct {
	spc    *space.Space
	target []int
	evals  int
}

func newBowl() *bowl {
	spc := space.New(
		space.NewIntRange("a", 0, 9),
		space.NewIntRange("b", 0, 9),
		space.NewIntRange("c", 0, 9),
		space.NewIntRange("d", 0, 9),
	)
	return &bowl{spc: spc, target: []int{3, 7, 1, 5}}
}

func (b *bowl) Name() string        { return "bowl" }
func (b *bowl) Space() *space.Space { return b.spc }
func (b *bowl) Evaluate(c space.Config) (float64, float64) {
	b.evals++
	d := 0.0
	for i, t := range b.target {
		diff := float64(c[i] - t)
		d += diff * diff
	}
	run := 1 + d
	return run, run + 0.5
}

// faulty wraps the bowl with deterministic fault injection so journals
// must round-trip failed and retried records too.
func newFaulty(seed uint64) search.Problem {
	rates := faults.Rates{CompileFail: 0.1, Crash: 0.1, Hang: 0.05}
	return search.NewResilient(faults.Wrap(newBowl(), rates, seed),
		search.ResilientOptions{Retries: 2, Timeout: 120})
}

// runRS runs (or resumes) random search through the journal in dir:
// the journaled form of search.RS(ctx, p, nmax, rng.New(seed)).
func runRS(ctx context.Context, dir string, p search.Problem, nmax int, seed uint64,
	opts WrapOptions) (*search.Result, *RunInfo, error) {

	meta := Meta{Problem: p.Name(), Algorithm: "RS", Seed: seed, NMax: nmax}
	return Run(ctx, dir, meta, p, opts, func(ctx context.Context, p search.Problem) *search.Result {
		return search.RS(ctx, p, nmax, rng.New(seed))
	})
}

// hasCheckpoint reports whether dir holds a checkpoint file.
func hasCheckpoint(t *testing.T, dir string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(dir, CheckpointFileName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

func sameResults(t *testing.T, want, got *search.Result) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Problem != want.Problem {
		t.Fatalf("identity differs: got %s/%s want %s/%s",
			got.Algorithm, got.Problem, want.Algorithm, want.Problem)
	}
	if got.Skipped != want.Skipped {
		t.Fatalf("skipped differs: got %d want %d", got.Skipped, want.Skipped)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("record count differs: got %d want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		w, g := want.Records[i], got.Records[i]
		if w.Config.Key() != g.Config.Key() {
			t.Fatalf("record %d config differs: got %v want %v", i, g.Config, w.Config)
		}
		if w.RunTime != g.RunTime && !(math.IsInf(w.RunTime, 1) && math.IsInf(g.RunTime, 1)) {
			t.Fatalf("record %d run time differs: got %v want %v", i, g.RunTime, w.RunTime)
		}
		if w.Cost != g.Cost || w.Elapsed != g.Elapsed {
			t.Fatalf("record %d clock differs: got (%v,%v) want (%v,%v)",
				i, g.Cost, g.Elapsed, w.Cost, w.Elapsed)
		}
		if w.Status != g.Status || w.Retries != g.Retries {
			t.Fatalf("record %d status differs: got (%v,%d) want (%v,%d)",
				i, g.Status, g.Retries, w.Status, w.Retries)
		}
	}
	wb, wi, wok := want.Best()
	gb, gi, gok := got.Best()
	if wok != gok || wi != gi || (wok && wb.RunTime != gb.RunTime) {
		t.Fatalf("best differs: got (%v,%d,%v) want (%v,%d,%v)", gb.RunTime, gi, gok, wb.RunTime, wi, wok)
	}
}

func TestLogAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, payloads, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 0 {
		t.Fatalf("fresh log has %d payloads", len(payloads))
	}
	msgs := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)}
	for _, m := range msgs {
		if err := l.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, payloads, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(payloads) != len(msgs) {
		t.Fatalf("got %d payloads, want %d", len(payloads), len(msgs))
	}
	for i, m := range msgs {
		if string(payloads[i]) != string(m) {
			t.Fatalf("payload %d = %q, want %q", i, payloads[i], m)
		}
	}
}

func TestLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, _, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{`{"a":1}`, `{"b":2}`, `{"c":3}`} {
		if err := l.Append([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	fi, _ := os.Stat(path)
	// Cut into the middle of the final frame: the tail must be dropped,
	// the first two frames kept.
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, payloads, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 {
		t.Fatalf("after torn tail got %d payloads, want 2", len(payloads))
	}
	// The truncation must be persistent and appends must continue cleanly.
	if err := l2.Append([]byte(`{"d":4}`)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, payloads, err = openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 3 || string(payloads[2]) != `{"d":4}` {
		t.Fatalf("append after recovery: got %d payloads, last %q", len(payloads), payloads[len(payloads)-1])
	}
}

func TestLogRejectsCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	l, _, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte(`{"a":1}`))
	l.Append([]byte(`{"b":2}`))
	l.Close()
	// Flip a byte inside the second frame's payload: its CRC must fail
	// and the scan must stop after the first frame.
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	_, payloads, err := openLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 {
		t.Fatalf("corrupt frame kept: got %d payloads, want 1", len(payloads))
	}
}

func TestSessionRoundTripWithFailures(t *testing.T) {
	dir := t.TempDir()
	p := newFaulty(7)
	ref := search.RS(context.Background(), p, 40, rng.New(7))
	counts := ref.Counts()
	if counts.Failed == 0 {
		t.Fatal("want at least one failed record in the reference run for a meaningful round-trip")
	}

	s, err := Create(dir, Meta{Problem: p.Name(), Algorithm: "RS", Seed: 7, NMax: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ref.Records {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.markDone(ref.Skipped); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Done() {
		t.Fatal("completed journal not recognized as done")
	}
	got, err := s2.Result()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, got)
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Problem: "x", Algorithm: "RS"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Create(dir, Meta{Problem: "x", Algorithm: "RS"}); err == nil {
		t.Fatal("second Create on same dir succeeded")
	}
}

func TestMetaCheck(t *testing.T) {
	a := Meta{Problem: "p", Algorithm: "RS", Seed: 1, NMax: 10, Extra: map[string]string{"m": "Sandybridge"}}
	if err := a.Check(a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Seed = 2
	if err := a.Check(b); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("seed mismatch not detected: %v", err)
	}
	c := Meta{Problem: "p", Algorithm: "RS", Seed: 1, NMax: 10, Extra: map[string]string{"m": "Westmere"}}
	if err := a.Check(c); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("extra mismatch not detected: %v", err)
	}
}

func TestRunRSFreshMatchesPlainRS(t *testing.T) {
	p1, p2 := newFaulty(11), newFaulty(11)
	ref := search.RS(context.Background(), p1, 30, rng.New(11))
	got, info, err := runRS(context.Background(), t.TempDir(), p2, 30, 11, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed || !info.Done {
		t.Fatalf("fresh run info = %+v", info)
	}
	sameResults(t, ref, got)
}

func TestRunRSCompletedJournalShortCircuits(t *testing.T) {
	dir := t.TempDir()
	p := newFaulty(13)
	ref, _, err := runRS(context.Background(), dir, p, 25, 13, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Second invocation must not evaluate anything.
	counter := newBowl()
	wrapped := search.NewResilient(faults.Wrap(counter, faults.Rates{}, 13), search.ResilientOptions{})
	got, info, err := runRS(context.Background(), dir, wrapped, 25, 13, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done || !info.Resumed {
		t.Fatalf("info = %+v", info)
	}
	if counter.evals != 0 {
		t.Fatalf("completed journal still evaluated %d configs", counter.evals)
	}
	sameResults(t, ref, got)
}

func TestRunRSRefusesMismatchedMeta(t *testing.T) {
	dir := t.TempDir()
	p := newFaulty(17)
	if _, _, err := runRS(context.Background(), dir, p, 20, 17, WrapOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runRS(context.Background(), dir, p, 20, 18, WrapOptions{}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("seed change accepted: %v", err)
	}
	if _, _, err := runRS(context.Background(), dir, p, 21, 17, WrapOptions{}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("nmax change accepted: %v", err)
	}
}

// cancelAfter cancels a context after n completed evaluations, from
// inside the evaluation path, so the search drains gracefully at a
// deterministic point.
type cancelAfter struct {
	search.Problem
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Evaluate(cfg space.Config) (float64, float64) {
	out := c.EvaluateFull(context.Background(), cfg)
	return out.RunTime, out.Cost
}

// EvaluateFull forwards full failure semantics (the inner problem may be
// a Resilient whose censored/retried statuses must survive the wrapper,
// or replay comparisons against it would diverge).
func (c *cancelAfter) EvaluateFull(ctx context.Context, cfg space.Config) search.Outcome {
	if c.seen >= c.n {
		c.cancel()
	}
	c.seen++
	return search.EvaluateFull(ctx, c.Problem, cfg)
}

// TestRunRSGracefulInterruptResume interrupts a journaled random search,
// optionally interrupts its resumes before they evaluate anything new,
// and resumes to completion: the result must equal the uninterrupted
// run's bit for bit, and only completion may write the checkpoint.
func TestRunRSGracefulInterruptResume(t *testing.T) {
	const nmax, seed = 30, 23
	ref := search.RS(context.Background(), newFaulty(seed), nmax, rng.New(seed))
	cases := []struct {
		name  string
		after int // evaluations before the first interrupt
		idle  int // resumes cancelled before their first new evaluation
	}{
		{"resume to completion", 11, 0},
		{"resume cancelled before its first new evaluation", 10, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			interruptible := &cancelAfter{Problem: newFaulty(seed), n: tc.after, cancel: cancel}
			partial, info, err := runRS(ctx, dir, interruptible, nmax, seed, WrapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if info.Done {
				t.Fatal("interrupted run reported done")
			}
			if n := len(partial.Records); n == 0 || n >= nmax {
				t.Fatalf("partial run has %d records", n)
			}
			for i, rec := range partial.Records {
				if rec.Config.Key() != ref.Records[i].Config.Key() || rec.RunTime != ref.Records[i].RunTime {
					t.Fatalf("partial record %d diverges from uninterrupted run", i)
				}
			}
			if hasCheckpoint(t, dir) {
				t.Fatal("interrupted run wrote a checkpoint")
			}

			// Each idle resume replays the whole journal and is cancelled
			// by its first new evaluation: nothing may be journaled.
			for i := 0; i < tc.idle; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				idle := &cancelAfter{Problem: newFaulty(seed), n: 0, cancel: cancel}
				res, info, err := runRS(ctx, dir, idle, nmax, seed, WrapOptions{})
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				if !info.Resumed || info.Done || info.Prior != len(partial.Records) {
					t.Fatalf("idle resume %d info = %+v, want resumed, not done, prior %d", i, info, len(partial.Records))
				}
				if len(res.Records) != len(partial.Records) {
					t.Fatalf("idle resume %d returned %d records, want %d", i, len(res.Records), len(partial.Records))
				}
				if hasCheckpoint(t, dir) {
					t.Fatalf("idle resume %d wrote a checkpoint", i)
				}
			}

			got, info, err := runRS(context.Background(), dir, newFaulty(seed), nmax, seed, WrapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !info.Resumed || !info.Done || info.Prior != len(partial.Records) {
				t.Fatalf("resume info = %+v, want resumed, done, prior %d", info, len(partial.Records))
			}
			sameResults(t, ref, got)
			if !hasCheckpoint(t, dir) {
				t.Fatal("completed resume wrote no checkpoint")
			}
		})
	}
}

func TestRunRSReplayResumeAfterCrash(t *testing.T) {
	// Reference: uninterrupted faulty run.
	ref := search.RS(context.Background(), newFaulty(29), 30, rng.New(29))

	// Interrupted run, then simulate a crash mid-append: a torn frame
	// header at the end of the log, which recovery must drop.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interruptible := &cancelAfter{Problem: newFaulty(29), n: 9, cancel: cancel}
	partial, _, err := runRS(ctx, dir, interruptible, 30, 29, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LogFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, info, err := runRS(context.Background(), dir, newFaulty(29), 30, 29, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.Prior != len(partial.Records) {
		t.Fatalf("resume info = %+v, want resumed with prior %d", info, len(partial.Records))
	}
	sameResults(t, ref, got)
}

func TestReplayDivergenceAborts(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interruptible := &cancelAfter{Problem: newBowl(), n: 6, cancel: cancel}
	if _, _, err := runRS(ctx, dir, interruptible, 20, 31, WrapOptions{}); err != nil {
		t.Fatal(err)
	}

	// Same meta on disk, but the search is driven with a different seed's
	// draw sequence via a tampered meta file. Rewrite meta seed so Check
	// passes while the replayed draws differ.
	metaPath := filepath.Join(dir, MetaFileName)
	data, _ := os.ReadFile(metaPath)
	tampered := []byte(string(data))
	copy(tampered, data)
	// Flip the stored seed 31 -> 32 so the resume (with seed 32) passes
	// the meta check but replays a different draw sequence.
	tampered = []byte(replaceOnce(string(tampered), `"seed": 31`, `"seed": 32`))
	if err := os.WriteFile(metaPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := runRS(context.Background(), dir, newBowl(), 20, 32, WrapOptions{})
	if err == nil || !errors.Is(err, search.ErrAborted) {
		t.Fatalf("diverging replay not aborted: %v", err)
	}
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

func TestGenericRunResumesDrive(t *testing.T) {
	// The generic Run path must resume any deterministic algorithm; use
	// simulated annealing (technique state is rebuilt during replay).
	drive := func(ctx context.Context, p search.Problem) *search.Result {
		r := rng.New(37)
		return search.Drive(ctx, p, search.NewAnneal(p.Space(), r, 0.95), 40)
	}
	ref := drive(context.Background(), newBowl())

	dir := t.TempDir()
	meta := Meta{Problem: "bowl", Algorithm: "SA", Seed: 37, NMax: 40}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interruptible := &cancelAfter{Problem: newBowl(), n: 13, cancel: cancel}
	partial, info, err := Run(ctx, dir, meta, interruptible, WrapOptions{}, drive)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done || len(partial.Records) >= 40 {
		t.Fatalf("interrupt did not drain: done=%v records=%d", info.Done, len(partial.Records))
	}

	got, info2, err := Run(context.Background(), dir, meta, newBowl(), WrapOptions{}, drive)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Resumed || !info2.Done {
		t.Fatalf("resume info = %+v", info2)
	}
	sameResults(t, ref, got)
}
