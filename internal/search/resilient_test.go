package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// attempt builds the outcome of one evaluation attempt the way an
// evaluation layer reports it: a measurement, or a failure carrying the
// cost the attempt burned and its error.
func attempt(run, cost float64, err error) Outcome {
	if err != nil {
		return Outcome{RunTime: math.Inf(1), Cost: cost, Status: StatusFailed, Err: err}
	}
	return Outcome{RunTime: run, Cost: cost, Status: StatusOK}
}

// scriptedProblem is an evaluation layer that replays a per-config
// script of attempt outcomes: each entry is a run time, or a negative
// code (-1 permanent failure, -2 transient failure).
type scriptedProblem struct {
	spc    *space.Space
	script map[string][]float64
	calls  map[string]int
}

func newScripted() *scriptedProblem {
	return &scriptedProblem{
		spc:    space.New(space.NewIntRange("x", 0, 9)),
		script: map[string][]float64{},
		calls:  map[string]int{},
	}
}

func (s *scriptedProblem) Name() string        { return "scripted@test" }
func (s *scriptedProblem) Space() *space.Space { return s.spc }

func (s *scriptedProblem) Evaluate(c space.Config) (float64, float64) {
	return EvaluateBackground(s, c)
}

func (s *scriptedProblem) EvaluateFull(_ context.Context, c space.Config) Outcome {
	key := c.Key()
	i := s.calls[key]
	s.calls[key]++
	steps := s.script[key]
	v := 1.0
	if i < len(steps) {
		v = steps[i]
	}
	switch {
	case v == -1:
		return attempt(0, 0.5, errors.New("permanent"))
	case v == -2:
		return attempt(0, 0.5, Transient(errors.New("transient")))
	default:
		return attempt(v, v+0.5, nil)
	}
}

func cfg(x int) space.Config { return space.Config{x} }

func TestResilientRetriesTransientAndChargesBackoff(t *testing.T) {
	p := newScripted()
	p.script[cfg(1).Key()] = []float64{-2, -2, 3}
	r := NewResilient(p, ResilientOptions{Retries: 2, Backoff: 1})
	out := r.EvaluateFull(context.Background(), cfg(1))
	if out.Status != StatusOK || out.RunTime != 3 || out.Retries != 2 {
		t.Fatalf("outcome = %+v", out)
	}
	// Two failed attempts (0.5 each) + backoff 1 + 2 + success (3.5).
	want := 0.5 + 0.5 + 1 + 2 + 3.5
	if math.Abs(out.Cost-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", out.Cost, want)
	}
}

func TestResilientExhaustsRetryBudget(t *testing.T) {
	p := newScripted()
	p.script[cfg(2).Key()] = []float64{-2, -2, -2, -2}
	r := NewResilient(p, ResilientOptions{Retries: 2, Backoff: 1})
	out := r.EvaluateFull(context.Background(), cfg(2))
	if out.Status != StatusFailed || !math.IsInf(out.RunTime, 1) {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Err == nil || IsTransient(out.Err) != true {
		t.Fatalf("want final transient error, got %v", out.Err)
	}
	if out.Retries != 2 {
		t.Fatalf("retries = %d", out.Retries)
	}
	// Three failed attempts + backoff 1 + 2 (no backoff after the last).
	if want := 1.5 + 3.0; math.Abs(out.Cost-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", out.Cost, want)
	}
}

func TestResilientPermanentFailureNotRetried(t *testing.T) {
	p := newScripted()
	p.script[cfg(3).Key()] = []float64{-1, 5}
	r := NewResilient(p, ResilientOptions{Retries: 3})
	out := r.EvaluateFull(context.Background(), cfg(3))
	if out.Status != StatusFailed || out.Retries != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if p.calls[cfg(3).Key()] != 1 {
		t.Fatalf("permanent failure retried %d times", p.calls[cfg(3).Key()]-1)
	}
}

func TestResilientCensorsAtTimeout(t *testing.T) {
	p := newScripted()
	p.script[cfg(4).Key()] = []float64{100}
	r := NewResilient(p, ResilientOptions{Timeout: 10})
	out := r.EvaluateFull(context.Background(), cfg(4))
	if out.Status != StatusCensored || out.RunTime != 10 {
		t.Fatalf("outcome = %+v", out)
	}
	// Charged: compile 0.5 + capped run 10, not the full 100.
	if want := 10.5; math.Abs(out.Cost-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", out.Cost, want)
	}
}

func TestResilientImplementsProblem(t *testing.T) {
	p := newScripted()
	p.script[cfg(5).Key()] = []float64{-1}
	var prob Problem = NewResilient(p, ResilientOptions{})
	run, _ := prob.Evaluate(cfg(5))
	if !math.IsInf(run, 1) {
		t.Fatalf("failed evaluation should surface as +Inf, got %v", run)
	}
	if prob.Name() != "scripted@test" {
		t.Fatal("name not passed through")
	}
}

// TestResilientWrapsBareProblem: a bare Problem is a valid inner
// problem; its measurement passes through as a clean outcome.
func TestResilientWrapsBareProblem(t *testing.T) {
	out := NewResilient(problemStub{}, ResilientOptions{}).EvaluateFull(context.Background(), cfg(1))
	if out.Status != StatusOK || out.RunTime != 2 || out.Cost != 3 || out.Retries != 0 || out.Err != nil {
		t.Fatalf("outcome = %+v, want ok run 2 cost 3", out)
	}
}

// TestEvaluateBackgroundRoundTrip: the context-free bridge returns a
// bare problem's run time and cost unchanged, and reaches a layer
// through its own EvaluateFull rather than re-wrapping it.
func TestEvaluateBackgroundRoundTrip(t *testing.T) {
	if run, cost := EvaluateBackground(problemStub{}, cfg(1)); run != 2 || cost != 3 {
		t.Fatalf("bare problem: run %v cost %v, want 2 3", run, cost)
	}
	p := newScripted()
	p.script[cfg(1).Key()] = []float64{4}
	if run, cost := EvaluateBackground(p, cfg(1)); run != 4 || cost != 4.5 || p.calls[cfg(1).Key()] != 1 {
		t.Fatalf("layer: run %v cost %v after %d calls, want 4 4.5 after 1", run, cost, p.calls[cfg(1).Key()])
	}
	p.script[cfg(2).Key()] = []float64{-1}
	if run, cost := EvaluateBackground(p, cfg(2)); !math.IsInf(run, 1) || cost != 0.5 {
		t.Fatalf("failed layer outcome: run %v cost %v, want +Inf 0.5", run, cost)
	}
}

type problemStub struct{}

func (problemStub) Name() string        { return "stub" }
func (problemStub) Space() *space.Space { return space.New(space.NewIntRange("x", 0, 9)) }
func (problemStub) Evaluate(space.Config) (float64, float64) {
	return 2, 3
}

// TestResilientFailsNonFiniteRun pins how Resilient treats a bare
// problem's non-finite run time: EvaluateFull flags it as a failed,
// non-transient attempt, so it becomes one failed record with its cost
// charged — exactly what it is without Resilient
// (TestEvaluateFullFlagsNonFinite). It is neither retried nor censored
// at the timeout cap, and no NaN reaches a record.
func TestResilientFailsNonFiniteRun(t *testing.T) {
	for _, run := range []float64{math.NaN(), math.Inf(1)} {
		r := NewResilient(constProblem{run: run}, ResilientOptions{Retries: 2, Timeout: 10})
		out := r.EvaluateFull(context.Background(), cfg(1))
		if out.Status != StatusFailed || !math.IsInf(out.RunTime, 1) || out.Cost != 1 ||
			out.Retries != 0 || out.Err == nil || IsTransient(out.Err) {
			t.Fatalf("run %v: outcome = %+v, want one failed non-transient attempt costing 1", run, out)
		}
	}
}

type constProblem struct{ run float64 }

func (constProblem) Name() string        { return "const" }
func (constProblem) Space() *space.Space { return space.New(space.NewIntRange("x", 0, 9)) }
func (p constProblem) Evaluate(space.Config) (float64, float64) {
	return p.run, 1
}

func TestSearchesCompleteUnderFailures(t *testing.T) {
	// A layer under which a third of the space permanently fails:
	// every search driver must run to completion and report counts.
	spc := space.New(space.NewIntRange("x", 0, 29), space.NewIntRange("y", 0, 9))
	fp := &funcLayer{spc: spc, fn: func(c space.Config) (float64, float64, error) {
		if c[0]%3 == 0 {
			return 0, 0.2, errors.New("no build")
		}
		return 1 + float64(c[0])*0.1 + float64(c[1])*0.01, 1.5, nil
	}}
	p := NewResilient(fp, ResilientOptions{Retries: 1})

	res := RS(context.Background(), p, 60, rng.New(3))
	counts := res.Counts()
	if counts.Failed == 0 || counts.OK == 0 {
		t.Fatalf("counts = %+v", counts)
	}
	if counts.Total() != len(res.Records) {
		t.Fatalf("counts total %d vs %d records", counts.Total(), len(res.Records))
	}
	best, _, ok := res.Best()
	if !ok || !best.Measured() {
		t.Fatalf("no measured best under partial failures")
	}

	for _, mk := range []func() *Result{
		func() *Result { return Drive(context.Background(), p, NewAnneal(spc, rng.New(5), 0.9), 40) },
		func() *Result { return Drive(context.Background(), p, NewGenetic(spc, rng.New(6), 8, 0.2), 40) },
		func() *Result { return Drive(context.Background(), p, NewPattern(spc, rng.New(7), 4), 40) },
	} {
		res := mk()
		if _, _, ok := res.Best(); !ok {
			t.Fatalf("heuristic found no measured best")
		}
		for _, rec := range res.Records {
			if rec.Status == StatusFailed && !math.IsInf(rec.RunTime, 1) {
				t.Fatalf("failed record has run time %v", rec.RunTime)
			}
		}
	}
}

// funcLayer is an evaluation layer whose attempts fn computes.
type funcLayer struct {
	spc *space.Space
	fn  func(space.Config) (float64, float64, error)
}

func (f *funcLayer) Name() string        { return "func@test" }
func (f *funcLayer) Space() *space.Space { return f.spc }
func (f *funcLayer) Evaluate(c space.Config) (float64, float64) {
	return EvaluateBackground(f, c)
}
func (f *funcLayer) EvaluateFull(_ context.Context, c space.Config) Outcome {
	return attempt(f.fn(c))
}

func TestEvaluateFullFlagsNonFinite(t *testing.T) {
	p := nanProblem{}
	out := EvaluateFull(context.Background(), p, cfg(1))
	if out.Status != StatusFailed || !math.IsInf(out.RunTime, 1) {
		t.Fatalf("outcome = %+v", out)
	}
}

type nanProblem struct{}

func (nanProblem) Name() string        { return "nan" }
func (nanProblem) Space() *space.Space { return space.New(space.NewIntRange("x", 0, 9)) }
func (nanProblem) Evaluate(space.Config) (float64, float64) {
	return math.NaN(), 1
}

func TestStatusRoundTrip(t *testing.T) {
	for _, st := range []Status{StatusOK, StatusCensored, StatusFailed} {
		got, err := ParseStatus(st.String())
		if err != nil || got != st {
			t.Fatalf("round trip %v: %v %v", st, got, err)
		}
	}
	if _, err := ParseStatus("exploded"); err == nil {
		t.Fatal("unknown status accepted")
	}
	rec := Record{Status: StatusOK, Retries: 2}
	if rec.StatusLabel() != "retried-2" {
		t.Fatalf("label = %q", rec.StatusLabel())
	}
	if fmt.Sprint(StatusCensored) != "censored" {
		t.Fatal("String not wired into fmt")
	}
	// Unknown values render the numeric fallback and refuse to parse.
	if got := Status(99).String(); got != "status(99)" {
		t.Fatalf("unknown status = %q", got)
	}
	if _, err := ParseStatus(Status(99).String()); err == nil {
		t.Fatal("numeric fallback parsed as a valid status")
	}
	// A censored record that was also retried labels as censored: the
	// retries are folded in only for clean measurements.
	censored := Record{Status: StatusCensored, Retries: 2}
	if censored.StatusLabel() != "censored" {
		t.Fatalf("censored-with-retries label = %q", censored.StatusLabel())
	}
}

// cancellingLayer fails transiently on every attempt and cancels the
// context from inside attempt number `after` — modelling a shutdown that
// lands while the evaluator is mid-retry.
type cancellingLayer struct {
	spc    *space.Space
	cancel context.CancelFunc
	after  int
	calls  int
}

func (p *cancellingLayer) Name() string        { return "cancelling@test" }
func (p *cancellingLayer) Space() *space.Space { return p.spc }
func (p *cancellingLayer) Evaluate(c space.Config) (float64, float64) {
	return EvaluateBackground(p, c)
}
func (p *cancellingLayer) EvaluateFull(_ context.Context, c space.Config) Outcome {
	p.calls++
	if p.calls >= p.after {
		p.cancel()
	}
	return attempt(0, 0.5, Transient(errors.New("transient")))
}

// TestResilientCancellationMidRetryAccounting pins the backoff
// accounting of an evaluation cut short between retries: the outcome is
// Interrupted (never recorded), and its Cost is exactly the attempts
// plus backoffs charged before the cancellation was observed — here
// 0.5 + 1 (backoff 2^0) + 0.5 + 2 (backoff 2^1) = 4.
func TestResilientCancellationMidRetryAccounting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &cancellingLayer{
		spc:    space.New(space.NewIntRange("x", 0, 9)),
		cancel: cancel,
		after:  2,
	}
	r := NewResilient(p, ResilientOptions{Retries: 3, Backoff: 1})
	out := r.EvaluateFull(ctx, cfg(3))

	if !out.Interrupted() {
		t.Fatalf("outcome not interrupted: %+v", out)
	}
	if !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.Err)
	}
	if out.Cost != 4 {
		t.Fatalf("cost = %v, want 4 (two 0.5 attempts plus backoffs 1 and 2)", out.Cost)
	}
	if !math.IsInf(out.RunTime, 1) || out.Status != StatusFailed {
		t.Fatalf("interrupted outcome carries (%v,%v), want (+Inf,failed)", out.RunTime, out.Status)
	}
	if p.calls != 2 {
		t.Fatalf("problem saw %d attempts, want 2 (no attempt after cancellation)", p.calls)
	}
}

// TestResilientCancellationBeforeFirstAttempt: a context already
// cancelled charges nothing and never touches the problem.
func TestResilientCancellationBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &cancellingLayer{spc: space.New(space.NewIntRange("x", 0, 9)), cancel: func() {}, after: 99}
	r := NewResilient(p, ResilientOptions{Retries: 2, Backoff: 1})
	out := r.EvaluateFull(ctx, cfg(1))
	if !out.Interrupted() || out.Cost != 0 {
		t.Fatalf("got %+v, want interrupted with zero cost", out)
	}
	if p.calls != 0 {
		t.Fatalf("problem saw %d attempts, want 0", p.calls)
	}
}
