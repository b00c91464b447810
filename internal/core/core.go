// Package core implements the paper's central contribution: exploiting
// performance portability by carrying autotuning knowledge across
// machines. Performance data T_a collected on a source machine trains a
// random-forest surrogate M_a, which then guides random search on a
// different target machine through the pruning (RSp) and biasing (RSb)
// strategies; model-free controls (RSpf, RSbf) replay T_a directly.
//
// Run executes the complete experiment for one (source, target, problem)
// triple under the paper's common-random-numbers methodology (Section
// IV-D): RS on the target evaluates configurations in exactly the order
// RS evaluated them on the source, and RSp walks the same candidate
// stream, so differences between algorithms are attributable to the
// strategies rather than sampling luck.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
	"repro/internal/stats"
)

// MinFitSamples is the smallest number of valid (finite) training rows
// FitSurrogate accepts. Below it a surrogate would be noise; callers
// should degrade to model-free search instead (Run does so
// automatically).
const MinFitSamples = 5

// ErrTooFewValid reports that a training set, after dropping failed and
// non-finite rows, is too small to fit a surrogate on. Run treats it as
// a signal to fall back to plain RS rather than a fatal error.
var ErrTooFewValid = errors.New("core: too few valid training samples")

// Surrogate is a performance model fitted to one machine's data and used
// to guide search on another, together with the space encoding it was
// trained under. Build one with NewSurrogate (FitSurrogate does), which
// also compiles the forest against the space so configurations are
// scored straight from their level indices.
type Surrogate struct {
	Forest *forest.Forest
	Space  *space.Space
	// Source names the machine/problem the training data came from.
	Source string

	compiled *forest.Compiled
}

// NewSurrogate binds a fitted forest to the space whose encoding it was
// trained under and compiles it against that space. It fails when the
// space does not encode to the forest's feature count.
func NewSurrogate(f *forest.Forest, spc *space.Space, source string) (*Surrogate, error) {
	if f.NumFeatures() != spc.NumParams() {
		return nil, fmt.Errorf("core: surrogate %s: forest has %d features, space encodes %d",
			source, f.NumFeatures(), spc.NumParams())
	}
	c, err := f.Compile(spc)
	if err != nil {
		return nil, err
	}
	return &Surrogate{Forest: f, Space: spc, Source: source, compiled: c}, nil
}

// Predict implements search.Model. Like the forest it wraps, a fitted
// Surrogate is immutable and safe for concurrent prediction.
func (s *Surrogate) Predict(x []float64) float64 { return s.Forest.Predict(x) }

// PredictAll implements search.BatchModel by forwarding to the forest's
// sharded batch path.
func (s *Surrogate) PredictAll(X [][]float64) []float64 { return s.Forest.PredictAll(X) }

// PredictConfigs implements search.ConfigModel: it returns
// Predict(spc.Encode(c)) for every c of cs, bit for bit. When spc encodes
// like the surrogate's own space (the same pointer, or Equal) the
// compiled forest scores the level indices directly; otherwise it
// encodes under spc and walks the forest.
func (s *Surrogate) PredictConfigs(spc *space.Space, cs []space.Config) []float64 {
	if !s.compiledFor(spc) {
		return s.Forest.PredictAll(spc.EncodeAll(cs))
	}
	return s.compiled.PredictConfigs(cs)
}

// ConfigScorer implements search.ConfigModel: the function it returns
// scores one configuration of spc at a time, returning
// Predict(spc.Encode(c)) bit for bit. spc is compared with the
// surrogate's space once, here, not per call; when it encodes alike, the
// function scores through its own compiled-forest Scorer on the calling
// goroutine and allocates nothing per call. It is therefore not safe for
// concurrent use; the Surrogate itself stays immutable.
func (s *Surrogate) ConfigScorer(spc *space.Space) func(space.Config) float64 {
	if !s.compiledFor(spc) {
		return func(c space.Config) float64 { return s.Forest.Predict(spc.Encode(c)) }
	}
	return s.compiled.Scorer().Predict
}

// Workers implements search.ConfigModel: the forest's own bound on its
// goroutines (forest.Params.Workers), so a pool is scored under the
// bound the surrogate was fitted with.
func (s *Surrogate) Workers() int { return s.Forest.Workers() }

// compiledFor reports whether configurations of spc may be scored through
// the compiled forest: spc is the surrogate's own space or Equal to it.
func (s *Surrogate) compiledFor(spc *space.Space) bool {
	return s.compiled != nil && (spc == s.Space || spc.Equal(s.Space))
}

// FitSurrogate trains the random-forest surrogate M_a on T_a. Failed and
// non-finite rows are dropped first; censored rows are kept (the cap is
// an informative lower bound for ranking slow configurations). With
// fewer than MinFitSamples surviving rows it returns ErrTooFewValid.
func FitSurrogate(ta search.Dataset, spc *space.Space, source string, p forest.Params, r *rng.RNG) (*Surrogate, error) {
	ta = ta.Valid()
	if len(ta) < MinFitSamples {
		return nil, fmt.Errorf("%w: %d of %d needed (source %s)",
			ErrTooFewValid, len(ta), MinFitSamples, source)
	}
	X, y := ta.Encode(spc)
	f, err := forest.Fit(X, y, p, r)
	if err != nil {
		return nil, err
	}
	return NewSurrogate(f, spc, source)
}

// Collect runs plain RS on the source problem and returns both the full
// search result and the extracted training set T_a.
func Collect(ctx context.Context, src search.Problem, nmax int, r *rng.RNG) (*search.Result, search.Dataset) {
	res := search.RS(ctx, src, nmax, r)
	return res, search.DatasetFrom(res)
}

// Speedups are the paper's two comparison metrics for a variant against
// plain RS on the same target (Section IV-D).
type Speedups struct {
	// Performance is best-RS-run-time / best-variant-run-time.
	Performance float64
	// SearchTime is (clock at which RS found its best) / (clock at which
	// the variant first matched or beat RS's best); 0 when the variant
	// never got there, as in the paper's 0.00 table entries.
	SearchTime float64
	// Success follows the paper's criterion: performance speedup at least
	// 1.0 and search-time speedup strictly greater than 1.0.
	Success bool
}

// ComputeSpeedups compares a variant's search result to the RS baseline.
func ComputeSpeedups(rs, variant *search.Result) Speedups {
	rsBest, rsIdx, ok := rs.Best()
	if !ok {
		return Speedups{}
	}
	vBest, _, ok := variant.Best()
	if !ok {
		return Speedups{}
	}
	s := Speedups{}
	if vBest.RunTime > 0 {
		s.Performance = rsBest.RunTime / vBest.RunTime
	}
	rsTime := rs.Records[rsIdx].Elapsed
	if t, reached := variant.TimeToReach(rsBest.RunTime); reached && t > 0 {
		s.SearchTime = rsTime / t
	}
	s.Success = s.Performance >= 1.0 && s.SearchTime > 1.0
	return s
}

// Options configures a transfer experiment.
type Options struct {
	// NMax is the per-algorithm evaluation budget (paper: 100).
	NMax int
	// PoolSize is the configuration pool size N (paper: 10,000).
	PoolSize int
	// DeltaPct is the pruning cutoff quantile (paper: 20).
	DeltaPct float64
	// Forest configures the surrogate (zero value = package defaults).
	Forest forest.Params
	// Seed drives every random stream of the experiment.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.NMax <= 0 {
		o.NMax = 100
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 10000
	}
	// Shared validation with RSp/RSpf: rejects NaN and out-of-range
	// values, not just negatives (Run warns when a value was replaced).
	o.DeltaPct, _ = search.NormalizeDeltaPct(o.DeltaPct)
	return o
}

// Outcome is the full result of one transfer experiment.
type Outcome struct {
	Source, Target string

	// SourceRS is the RS run on the source machine that produced Ta.
	SourceRS *search.Result
	Ta       search.Dataset

	// Target-machine runs under common random numbers.
	RS   *search.Result
	RSp  *search.Result
	RSb  *search.Result
	RSpf *search.Result
	RSbf *search.Result

	// Speedups of each variant over RS, keyed by algorithm name.
	Speedups map[string]Speedups

	// Paired run times of Ta's configurations on source and target (the
	// correlation panels of Figures 3–5) and their correlations. Pairs
	// where either side failed are excluded.
	SourceRuns, TargetRuns []float64
	Pearson, Spearman      float64

	// Surrogate is M_a, the model the model-based variants searched
	// with; nil when Degraded.
	Surrogate *Surrogate

	// Surrogate quality on the target: rank correlation between M_a's
	// predictions and the target's measured times over Ta's configs.
	SurrogateSpearman float64

	// Degraded reports that the surrogate could not be fit (too many
	// failed source evaluations) and the model-based variants fell back
	// to plain RS; Warnings carries the structured explanation.
	Degraded bool
	Warnings []string

	// FailureCounts tallies evaluation statuses per run, keyed like
	// Speedups plus "SourceRS" and "RS".
	FailureCounts map[string]search.Counts
}

// Prelude is the target-independent half of a transfer experiment, the
// work the paper does once on the source machine γ_a and reuses on every
// target γ_b: the source RS run, T_a, the surrogate M_a fitted on it, and
// what RSp and RSb read of the pool they share, which is streamed and
// scored in blocks and never held whole. A Prelude is immutable after
// Prepare; Run only reads it, so one Prelude may serve any number of
// targets, concurrently too.
type Prelude struct {
	Source string
	// SourceRS is the RS run on the source machine that produced Ta.
	SourceRS *search.Result
	Ta       search.Dataset
	// Surrogate is M_a; nil when the fit degraded (Warnings says why).
	Surrogate *Surrogate
	// Cutoff (RSp's Δ) and Best (RSb's NMax configurations, in order) are
	// the pool's search.PoolScores; zero when degraded.
	Cutoff   float64
	Best     []space.Config
	Warnings []string

	space *space.Space
	opt   Options
}

// Prepare runs the source half of the transfer experiment: collect Ta on
// src, fit M_a, and stream the shared pool through search.ScorePool,
// which draws and scores it in blocks and keeps only Cutoff and Best.
// When too few source evaluations succeed to fit a surrogate, the
// prelude is degraded rather than an error: its Run falls back to plain
// RS for RSp and RSb. Once ctx is cancelled it returns an error wrapping
// ctx's before the next phase.
func Prepare(ctx context.Context, src search.Problem, opt Options) (*Prelude, error) {
	tr := obs.FromContext(ctx)
	if _, adjusted := search.NormalizeDeltaPct(opt.DeltaPct); adjusted {
		tr.Warn("core.Run",
			fmt.Sprintf("DeltaPct %g outside (0,100); using default %g", opt.DeltaPct, float64(search.DefaultDeltaPct)))
	}
	opt = opt.withDefaults()
	p := &Prelude{Source: src.Name(), space: src.Space(), opt: opt}

	// Collect Ta on the source machine with the shared stream.
	p.SourceRS, p.Ta = Collect(ctx, src, opt.NMax, rng.NewNamed(opt.Seed, "crn-stream"))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: prepare %s: %w", p.Source, err)
	}

	// Fit the surrogate. When the source search lost too many evaluations
	// to failures, the surrogate cannot be trusted; instead of erroring,
	// degrade gracefully to model-free search.
	sur, err := FitSurrogate(p.Ta, src.Space(), src.Name(), opt.Forest, rng.NewNamed(opt.Seed, "forest"))
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("core: prepare %s: %w", p.Source, cerr)
	}
	if err != nil {
		if !errors.Is(err, ErrTooFewValid) {
			return nil, err
		}
		warning := fmt.Sprintf(
			"surrogate unavailable (%v); RSp and RSb fall back to plain RS", err)
		p.Warnings = append(p.Warnings, warning)
		tr.Degraded(warning)
		return p, nil
	}
	if tr.Enabled() {
		rows, dur := sur.Forest.FitStats()
		tr.ModelFit(src.Name(), rows, dur)
	}
	p.Surrogate = sur

	// The pool is drawn from the source space: Run accepts only targets
	// whose space Equals it, and sampling and encoding read nothing else,
	// so this is the pool RSp and RSb would each draw on the target.
	sw := obs.StartTimer()
	pool := search.ScorePool(p.space, sur, opt.PoolSize, opt.NMax, opt.DeltaPct, rng.NewNamed(opt.Seed, "pool"))
	tr.ModelPredict(src.Name(), "pool-score", pool.Drawn, sw.Elapsed())
	p.Cutoff, p.Best = pool.Cutoff, pool.Best
	return p, nil
}

// sameSpace refuses a target whose space differs from the source's
// (the paper's assumption that D(α) is fixed across machines).
func sameSpace(src, tgt *space.Space) error {
	if !src.Equal(tgt) {
		return fmt.Errorf("core: source and target must share the configuration space (paper assumption D(α) fixed)")
	}
	return nil
}

// Run executes the transfer experiment: collect Ta on the source, fit
// M_a, then run RS and all four variants on the target under common
// random numbers, and compute the paper's metrics. It is Prepare on src
// followed by the prelude's Run on tgt. Cancelling ctx drains whichever
// search phase is running between evaluations: in Prepare, Run returns
// Prepare's error; later, the partial outcome is internally consistent,
// but callers should treat it as incomplete (check ctx.Err after Run).
func Run(ctx context.Context, src, tgt search.Problem, opt Options) (*Outcome, error) {
	if err := sameSpace(src.Space(), tgt.Space()); err != nil {
		return nil, err
	}
	p, err := Prepare(ctx, src, opt)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, tgt)
}

// Run executes the target half of the transfer experiment on tgt: RS
// replaying the source run, RSp with Cutoff and RSb replaying Best (or
// plain RS when degraded), the model-free controls, and the paper's
// metrics. It refuses a target whose space differs from the source's.
// On a search.Pure target the five searches run concurrently, within the
// prelude's Forest.Workers bound; the outcome and the telemetry are the
// serial run's either way.
func (p *Prelude) Run(ctx context.Context, tgt search.Problem) (*Outcome, error) {
	if err := sameSpace(p.space, tgt.Space()); err != nil {
		return nil, err
	}
	opt := p.opt
	out := &Outcome{
		Source: p.Source, Target: tgt.Name(),
		SourceRS: p.SourceRS, Ta: p.Ta, Surrogate: p.Surrogate,
		Degraded: p.Surrogate == nil, Warnings: append([]string(nil), p.Warnings...),
		Speedups: map[string]Speedups{},
	}

	// RS on the target evaluates the same configurations in the same
	// order as RS on the source (method of common random numbers).
	srcSeq := make([]space.Config, len(p.SourceRS.Records))
	for i, rec := range p.SourceRS.Records {
		srcSeq[i] = rec.Config
	}
	rs := func(ctx context.Context) *search.Result { return search.Replay(ctx, tgt, srcSeq, "RS") }
	var rsp, rsb func(ctx context.Context) *search.Result
	if sur := p.Surrogate; sur != nil {
		// RSp walks the same candidate stream as RS (fresh
		// identically-seeded stream) and prunes with the surrogate.
		rsp = func(ctx context.Context) *search.Result {
			return search.RSpScored(ctx, tgt, sur, p.Cutoff,
				search.RSpOptions{NMax: opt.NMax, DeltaPct: opt.DeltaPct},
				rng.NewNamed(opt.Seed, "crn-stream"))
		}
		// RSb evaluates the pool in ascending predicted order.
		rsb = func(ctx context.Context) *search.Result { return search.Replay(ctx, tgt, p.Best, "RSb") }
	} else {
		// Fallback: plain RS on the variants' own streams, so the
		// experiment still yields five complete runs (the variants just
		// bring no knowledge).
		rsp = func(ctx context.Context) *search.Result {
			res := search.RS(ctx, tgt, opt.NMax, rng.NewNamed(opt.Seed, "crn-stream"))
			res.Algorithm = "RSp(RS-fallback)"
			return res
		}
		rsb = func(ctx context.Context) *search.Result {
			res := search.RS(ctx, tgt, opt.NMax, rng.NewNamed(opt.Seed, "pool"))
			res.Algorithm = "RSb(RS-fallback)"
			return res
		}
	}
	// Model-free controls restricted to Ta (empty Ta yields empty runs).
	rspf := func(ctx context.Context) *search.Result { return search.RSpf(ctx, tgt, p.Ta, opt.DeltaPct) }
	rsbf := func(ctx context.Context) *search.Result { return search.RSbf(ctx, tgt, p.Ta) }
	runs := runSearches(ctx, tgt, opt.Forest.Workers, [...]func(context.Context) *search.Result{rs, rsp, rsb, rspf, rsbf})
	out.RS, out.RSp, out.RSb, out.RSpf, out.RSbf = runs[0], runs[1], runs[2], runs[3], runs[4]

	for name, res := range map[string]*search.Result{
		"RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf,
	} {
		out.Speedups[name] = ComputeSpeedups(out.RS, res)
	}
	out.FailureCounts = map[string]search.Counts{
		"SourceRS": p.SourceRS.Counts(), "RS": out.RS.Counts(),
		"RSp": out.RSp.Counts(), "RSb": out.RSb.Counts(),
		"RSpf": out.RSpf.Counts(), "RSbf": out.RSbf.Counts(),
	}

	// Correlation panel: the RS replay re-evaluated every source
	// configuration on the target, giving exact pairs; pairs where
	// either side failed to measure are dropped. The same pairs rate the
	// surrogate on the target.
	var paired []space.Config
	for i, srcRec := range p.SourceRS.Records {
		if i >= len(out.RS.Records) {
			break // replay drained early by cancellation
		}
		tgtRec := out.RS.Records[i]
		if !srcRec.Measured() || !tgtRec.Measured() {
			continue
		}
		out.SourceRuns = append(out.SourceRuns, srcRec.RunTime)
		out.TargetRuns = append(out.TargetRuns, tgtRec.RunTime)
		paired = append(paired, srcRec.Config)
	}
	if r, err := stats.Pearson(out.SourceRuns, out.TargetRuns); err == nil {
		out.Pearson = r
	}
	if s, err := stats.Spearman(out.SourceRuns, out.TargetRuns); err == nil {
		out.Spearman = s
	}
	if sur := p.Surrogate; sur != nil {
		preds := search.ScoreConfigs(sur, sur.Space, paired)
		if s, err := stats.Spearman(preds, out.TargetRuns); err == nil {
			out.SurrogateSpearman = s
		}
	}

	return out, nil
}

// claimOrder is the order runSearches starts the five target searches
// in when it runs them concurrently: RSp, the longest, first, so it is
// not the one left running alone at the end; then the rest in serial
// order.
var claimOrder = [5]int{1, 0, 2, 3, 4}

// runSearches runs the five target searches (RS, RSp, RSb, RSpf, RSbf)
// and returns their results in that order. On a search.Pure target they
// run in one parallel region of at most workers goroutines (<= 0 means
// GOMAXPROCS): each search then computes what it computes alone, and
// under an enabled tracer each runs under its own buffer, replayed in
// the serial order, so every sink sees the serial event sequence. Any
// other target is a stack of evaluation layers, whose state may carry
// from one search to the next (a fault injector counts attempts per
// configuration across searches), so they run one after another in the
// serial order.
func runSearches(ctx context.Context, tgt search.Problem, workers int, searches [5]func(context.Context) *search.Result) (runs [5]*search.Result) {
	if _, pure := tgt.(search.Pure); !pure || parallel.Workers(workers) == 1 {
		for i, run := range searches {
			runs[i] = run(ctx)
		}
		return runs
	}
	fan := obs.NewFanin(ctx, len(searches))
	parallel.Do(workers, len(searches), func(k int) {
		i := claimOrder[k]
		runs[i] = searches[i](fan.Context(ctx, i))
	})
	fan.Replay()
	return runs
}
