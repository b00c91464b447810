// Package search implements the search algorithms of the paper: random
// search without replacement (RS), the model-based pruning and biasing
// variants RSp and RSb (Algorithms 1 and 2), their model-free controls
// RSpf and RSbf, and — for the paper's future-work extension — simulated
// annealing, a genetic algorithm, and pattern search.
//
// All algorithms consume the Problem interface and produce a Result whose
// per-evaluation records carry the cumulative search clock, so the
// performance and search-time speedups of Section IV-D can be computed
// afterwards. Randomness comes exclusively from injected rng streams: two
// algorithms given samplers with the same seed draw identical candidate
// sequences, which implements the paper's common-random-numbers setup.
//
// Between a search and the bare Problem sit evaluation layers (fault
// injection, retries and timeouts, the evaluation cache, the journal,
// remote dispatch). A layer is a Problem that also implements
// FullEvaluator and reaches the layer below only through EvaluateFull,
// so the search's context — cancellation, tracer, trace id — reaches
// the simulator and every outcome, failed attempts included, travels
// back up whole. Each layer's context-free Evaluate is EvaluateBackground.
package search

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/space"
)

// Problem is an autotuning search problem: a configuration space plus an
// evaluator. Evaluate returns the measured run time of the configuration
// and the total cost charged to the search clock (compile + run).
type Problem interface {
	Name() string
	Space() *space.Space
	Evaluate(c space.Config) (runTime, cost float64)
}

// Pure is implemented by a bare problem whose Evaluate is a pure
// function of the configuration and safe to call from several goroutines
// at once, so searches over it may run concurrently and each still
// computes what it computes alone. No evaluation layer implements it: a
// layer may keep state across searches (fault attempt counts, a cache,
// a journal) or order its side effects, so a stack of layers is never
// Pure, even over a Pure problem.
type Pure interface {
	Problem
	// Pure marks the implementation; it does nothing.
	Pure()
}

// Status classifies how an evaluation ended.
type Status uint8

const (
	// StatusOK is a clean measurement.
	StatusOK Status = iota
	// StatusCensored means the run hit the evaluator's timeout cap: the
	// recorded run time is the cap, a lower bound on the true time.
	StatusCensored
	// StatusFailed means the evaluation produced no measurement (compile
	// failure, or crashes that exhausted the retry budget).
	StatusFailed
)

// String renders the status as it appears in reports and saved datasets.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCensored:
		return "censored"
	case StatusFailed:
		return "failed"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// ParseStatus is the inverse of Status.String.
func ParseStatus(s string) (Status, error) {
	switch s {
	case "ok":
		return StatusOK, nil
	case "censored":
		return StatusCensored, nil
	case "failed":
		return StatusFailed, nil
	}
	return StatusOK, fmt.Errorf("search: unknown status %q", s)
}

// Record is one evaluated configuration, in evaluation order.
type Record struct {
	Config  space.Config
	RunTime float64
	Cost    float64
	// Elapsed is the cumulative search clock after this evaluation.
	Elapsed float64
	// Status classifies the evaluation; the zero value is StatusOK, so
	// code built before the failure path behaves unchanged.
	Status Status
	// Retries counts how many extra attempts the evaluation needed.
	Retries int
}

// Measured reports whether the record carries a usable clean measurement:
// status ok and a finite run time. Censored and failed records are not
// candidates for "best found".
func (rec Record) Measured() bool {
	return rec.Status == StatusOK && !math.IsNaN(rec.RunTime) && !math.IsInf(rec.RunTime, 0)
}

// StatusLabel renders the record's status for reports, folding the retry
// count in ("ok", "retried-2", "censored", "failed").
func (rec Record) StatusLabel() string {
	if rec.Status == StatusOK && rec.Retries > 0 {
		return fmt.Sprintf("retried-%d", rec.Retries)
	}
	return rec.Status.String()
}

// Result is the outcome of one search run.
type Result struct {
	Algorithm string
	Problem   string
	Records   []Record
	// Skipped counts configurations considered but not evaluated
	// (pruning strategies).
	Skipped int
}

// Counts aggregates the per-status totals of a search run.
type Counts struct {
	OK       int // clean measurements (including retried ones)
	Censored int // runs clipped at the timeout cap
	Failed   int // evaluations that produced no measurement
	// Retried counts records that needed at least one retry; Retries is
	// the total number of extra attempts across the run.
	Retried int
	Retries int
}

// Total returns the number of evaluation records counted.
func (c Counts) Total() int { return c.OK + c.Censored + c.Failed }

// Counts tallies the result's records by status.
func (r *Result) Counts() Counts {
	var c Counts
	for _, rec := range r.Records {
		switch rec.Status {
		case StatusCensored:
			c.Censored++
		case StatusFailed:
			c.Failed++
		default:
			c.OK++
		}
		if rec.Retries > 0 {
			c.Retried++
			c.Retries += rec.Retries
		}
	}
	return c
}

// Best returns the measured record with the minimum run time and its
// index. Failed and censored records are skipped, as are non-finite run
// times (a NaN must not poison the min comparison); ok=false when no
// measured record exists.
func (r *Result) Best() (Record, int, bool) {
	best := -1
	for i, rec := range r.Records {
		if !rec.Measured() {
			continue
		}
		if best < 0 || rec.RunTime < r.Records[best].RunTime {
			best = i
		}
	}
	if best < 0 {
		return Record{}, 0, false
	}
	return r.Records[best], best, true
}

// Elapsed returns the total search clock.
func (r *Result) Elapsed() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	return r.Records[len(r.Records)-1].Elapsed
}

// TimeToReach returns the search clock at which the search first found a
// measured configuration with run time <= target, and whether it ever
// did. Censored and failed records never count as reaching a target.
func (r *Result) TimeToReach(target float64) (float64, bool) {
	for _, rec := range r.Records {
		if rec.Measured() && rec.RunTime <= target {
			return rec.Elapsed, true
		}
	}
	return 0, false
}

// BestSoFar returns the running minimum measured run time after each
// evaluation (the best-found trajectory plotted in Figures 3–5). Entries
// before the first clean measurement are +Inf.
func (r *Result) BestSoFar() []float64 {
	out := make([]float64, len(r.Records))
	best := math.Inf(1)
	for i, rec := range r.Records {
		if rec.Measured() && rec.RunTime < best {
			best = rec.RunTime
		}
		out[i] = best
	}
	return out
}

// Dataset is a set of (configuration, run time) pairs collected on some
// machine — the paper's T_a.
type Dataset []Sample

// Sample is one element of a Dataset.
type Sample struct {
	Config  space.Config
	RunTime float64
	// Censored marks a run time clipped at a timeout cap: the true time
	// is at least RunTime. Censored rows round-trip through SaveCSV /
	// LoadCSV so transfer consumers can weigh them appropriately.
	Censored bool
}

// DatasetFrom extracts the training set T_a from a search result. Failed
// evaluations carry no measurement and are dropped; censored records are
// kept and flagged.
func DatasetFrom(res *Result) Dataset {
	ds := make(Dataset, 0, len(res.Records))
	for _, rec := range res.Records {
		if rec.Status == StatusFailed || math.IsNaN(rec.RunTime) || math.IsInf(rec.RunTime, 0) {
			continue
		}
		ds = append(ds, Sample{
			Config:   rec.Config,
			RunTime:  rec.RunTime,
			Censored: rec.Status == StatusCensored,
		})
	}
	return ds
}

// Valid returns the rows with finite run times — the subset safe to
// aggregate or fit models on. A NaN or Inf row (e.g. from a hand-built
// dataset or a failed evaluation) would otherwise silently poison fits
// and min comparisons.
func (d Dataset) Valid() Dataset {
	out := make(Dataset, 0, len(d))
	for _, s := range d {
		if math.IsNaN(s.RunTime) || math.IsInf(s.RunTime, 0) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Uncensored returns the rows that are both valid and not censored.
func (d Dataset) Uncensored() Dataset {
	out := make(Dataset, 0, len(d))
	for _, s := range d.Valid() {
		if !s.Censored {
			out = append(out, s)
		}
	}
	return out
}

// Encode converts the dataset into a feature matrix and target vector for
// model fitting under the space's encoding.
func (d Dataset) Encode(s *space.Space) (X [][]float64, y []float64) {
	X = make([][]float64, len(d))
	y = make([]float64, len(d))
	for i, smp := range d {
		X[i] = s.Encode(smp.Config)
		y[i] = smp.RunTime
	}
	return X, y
}

// runner accumulates evaluations into a Result.
type runner struct {
	p   Problem
	res *Result
	tr  *obs.Tracer
}

func newRunner(p Problem, algorithm string) *runner {
	return &runner{p: p, res: &Result{Algorithm: algorithm, Problem: p.Name()}}
}

// start binds the context's tracer (nil when telemetry is off) and opens
// the run's trace span. Every algorithm calls it once before its loop
// and pairs it with a deferred finish.
func (r *runner) start(ctx context.Context) {
	r.tr = obs.FromContext(ctx)
	r.tr.SearchStart(r.res.Algorithm, r.res.Problem)
}

// finish closes the run's trace span with its totals.
func (r *runner) finish() {
	if !r.tr.Enabled() {
		return
	}
	best := math.Inf(1)
	if rec, _, ok := r.res.Best(); ok {
		best = rec.RunTime
	}
	r.tr.SearchFinish(r.res.Algorithm, r.res.Problem,
		len(r.res.Records), r.res.Skipped, best, r.res.Elapsed())
}

// skip counts a candidate rejected by a pruning cutoff and traces the
// decision (prediction pred missed cutoff).
func (r *runner) skip(seq int, c space.Config, pred, cutoff float64) {
	r.res.Skipped++
	r.tr.Skip(r.res.Algorithm, r.res.Problem, seq, c, pred, cutoff)
}

// evaluate runs one configuration and appends its record. ok is false
// when the evaluation was interrupted by context cancellation: nothing
// is recorded (a half-finished attempt sequence must not enter the
// result, or a resumed run could never reproduce it) and the caller
// must stop the search.
func (r *runner) evaluate(ctx context.Context, c space.Config) (Record, bool) {
	// The problem and the record get a copy no one writes to, so a caller
	// may reuse c's buffer.
	c = c.Clone()
	out := EvaluateFull(ctx, r.p, c)
	if out.Interrupted() {
		return Record{}, false
	}
	rec := Record{
		Config: c, RunTime: out.RunTime, Cost: out.Cost,
		Elapsed: r.elapsed() + out.Cost,
		Status:  out.Status, Retries: out.Retries,
	}
	r.res.Records = append(r.res.Records, rec)
	if r.tr.Enabled() {
		r.tr.Eval(r.res.Algorithm, r.res.Problem, len(r.res.Records)-1, rec.Config,
			rec.RunTime, rec.Cost, rec.Elapsed, rec.Status.String(), rec.Retries)
	}
	return rec, true
}

func (r *runner) elapsed() float64 {
	if n := len(r.res.Records); n > 0 {
		return r.res.Records[n-1].Elapsed
	}
	return 0
}

// RS runs random search without replacement for nmax evaluations (fewer
// if the space is exhausted). At iteration k every unevaluated
// configuration is equally likely to be drawn.
//
// Cancelling ctx drains the search gracefully: the in-flight evaluation
// finishes (or is dropped if it had not started), the partial Result is
// returned, and — because records are only ever appended between
// evaluations — the partial result is a bit-exact prefix of the
// uninterrupted run, which is what journal-based resumption depends on.
func RS(ctx context.Context, p Problem, nmax int, r *rng.RNG) *Result {
	run := newRunner(p, "RS")
	sampler := space.NewSampler(p.Space(), r)
	run.start(ctx)
	defer run.finish()
	c := make(space.Config, p.Space().NumParams()) // evaluate copies what it keeps
	for len(run.res.Records) < nmax && ctx.Err() == nil {
		if !sampler.NextInto(c) {
			break
		}
		if _, ok := run.evaluate(ctx, c); !ok {
			break
		}
	}
	return run.res
}

// Replay evaluates exactly the given configurations in order; every
// fixed-order search (the RS replay, RSb, RSbf) is one. Like RS, it
// stops cleanly between evaluations when ctx is cancelled.
func Replay(ctx context.Context, p Problem, seq []space.Config, algorithm string) *Result {
	run := newRunner(p, algorithm)
	run.start(ctx)
	defer run.finish()
	for _, c := range seq {
		if ctx.Err() != nil {
			break
		}
		if _, ok := run.evaluate(ctx, c); !ok {
			break
		}
	}
	return run.res
}

// Sequence returns the first n configurations an RS run with this stream
// would evaluate. Two calls with identically-seeded streams return the
// same sequence.
func Sequence(s *space.Space, n int, r *rng.RNG) []space.Config {
	sampler := space.NewSampler(s, r)
	out := make([]space.Config, 0, n)
	for len(out) < n {
		c, ok := sampler.Next()
		if !ok {
			break
		}
		out = append(out, c)
	}
	return out
}

// SampleBestOverTime returns the best-found run time at each of the
// given search-clock instants (the paper's figures plot best-so-far
// against elapsed search time, not evaluation count). Instants before
// the first evaluation completes yield +Inf.
func (r *Result) SampleBestOverTime(grid []float64) []float64 {
	out := make([]float64, len(grid))
	best := math.Inf(1)
	rec := 0
	for i, t := range grid {
		for rec < len(r.Records) && r.Records[rec].Elapsed <= t {
			if r.Records[rec].Measured() && r.Records[rec].RunTime < best {
				best = r.Records[rec].RunTime
			}
			rec++
		}
		out[i] = best
	}
	return out
}
