package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
	"repro/internal/stats"
)

// outcomeKey renders everything a transfer outcome computed: every run's
// records, the speedups, the correlations, the surrogate's rank
// correlation, the warnings and the failure counts. %v prints each float
// in its shortest round-tripping form, so equal keys mean bit-identical
// outcomes.
func outcomeKey(o *Outcome) string {
	return fmt.Sprintf("%s>%s\nsrc %v\nta %v\nrs %v\nrsp %v\nrsb %v\nrspf %v\nrsbf %v\n"+
		"speedups %v\nruns %v %v\ncorr %v %v %v\ndegraded %v %v\ncounts %v",
		o.Source, o.Target, *o.SourceRS, o.Ta, *o.RS, *o.RSp, *o.RSb, *o.RSpf, *o.RSbf,
		o.Speedups, o.SourceRuns, o.TargetRuns, o.Pearson, o.Spearman, o.SurrogateSpearman,
		o.Degraded, o.Warnings, o.FailureCounts)
}

// composedRun is the transfer experiment composed from the public
// functions, the way a caller tracing each phase composes it: RSp and
// RSb each draw and score their own pool on the target from their own
// "pool" stream, and the surrogate rates itself row by row.
func composedRun(t *testing.T, src, tgt search.Problem, opt Options) *Outcome {
	t.Helper()
	ctx := context.Background()
	out := &Outcome{Source: src.Name(), Target: tgt.Name(), Speedups: map[string]Speedups{}}
	out.SourceRS, out.Ta = Collect(ctx, src, opt.NMax, rng.NewNamed(opt.Seed, "crn-stream"))
	sur, err := FitSurrogate(out.Ta, src.Space(), src.Name(), opt.Forest, rng.NewNamed(opt.Seed, "forest"))
	if err != nil {
		t.Fatal(err)
	}
	out.Surrogate = sur
	srcSeq := make([]space.Config, len(out.SourceRS.Records))
	for i, rec := range out.SourceRS.Records {
		srcSeq[i] = rec.Config
	}
	out.RS = search.Replay(ctx, tgt, srcSeq, "RS")
	out.RSp = search.RSp(ctx, tgt, sur,
		search.RSpOptions{NMax: opt.NMax, PoolSize: opt.PoolSize, DeltaPct: opt.DeltaPct},
		rng.NewNamed(opt.Seed, "crn-stream"), rng.NewNamed(opt.Seed, "pool"))
	out.RSb = search.RSb(ctx, tgt, sur, search.RSbOptions{NMax: opt.NMax, PoolSize: opt.PoolSize},
		rng.NewNamed(opt.Seed, "pool"))
	out.RSpf = search.RSpf(ctx, tgt, out.Ta, opt.DeltaPct)
	out.RSbf = search.RSbf(ctx, tgt, out.Ta)
	for name, res := range map[string]*search.Result{"RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf} {
		out.Speedups[name] = ComputeSpeedups(out.RS, res)
	}
	out.FailureCounts = map[string]search.Counts{
		"SourceRS": out.SourceRS.Counts(), "RS": out.RS.Counts(),
		"RSp": out.RSp.Counts(), "RSb": out.RSb.Counts(),
		"RSpf": out.RSpf.Counts(), "RSbf": out.RSbf.Counts(),
	}
	var preds []float64
	for i, srcRec := range out.SourceRS.Records {
		tgtRec := out.RS.Records[i]
		if !srcRec.Measured() || !tgtRec.Measured() {
			continue
		}
		out.SourceRuns = append(out.SourceRuns, srcRec.RunTime)
		out.TargetRuns = append(out.TargetRuns, tgtRec.RunTime)
		preds = append(preds, sur.Predict(tgt.Space().Encode(srcRec.Config)))
	}
	out.Pearson, _ = stats.Pearson(out.SourceRuns, out.TargetRuns)
	out.Spearman, _ = stats.Spearman(out.SourceRuns, out.TargetRuns)
	out.SurrogateSpearman, _ = stats.Spearman(preds, out.TargetRuns)
	return out
}

// checkKeptResults holds a prelude's Cutoff and Best to oracles built
// without ScoredPool's helpers: the pool is drawn and scored again from
// the "pool" stream, Cutoff must be stats.Quantile of its predictions at
// δ/100, and Best the first NMax entries of a stable sort by prediction.
func checkKeptResults(t *testing.T, wl string, pre *Prelude, src search.Problem, opt Options) {
	t.Helper()
	spc := src.Space()
	pool := spc.SamplePool(opt.PoolSize, rng.NewNamed(opt.Seed, "pool"))
	preds := make([]float64, len(pool))
	for i, c := range pool {
		preds[i] = pre.Surrogate.Predict(spc.Encode(c))
	}
	if want := stats.Quantile(preds, opt.DeltaPct/100); math.Float64bits(pre.Cutoff) != math.Float64bits(want) {
		t.Fatalf("%s: cutoff %v, want %v", wl, pre.Cutoff, want)
	}
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return preds[order[a]] < preds[order[b]] })
	for i, c := range pre.Best {
		if c.Key() != pool[order[i]].Key() {
			t.Fatalf("%s: best[%d] is %v, want pool[%d] %v", wl, i, c, order[i], pool[order[i]])
		}
	}
}

// cancelAfter cancels its context once it has evaluated n configurations.
type cancelAfter struct {
	search.Problem
	n, evals int
	cancel   context.CancelFunc
}

func (c *cancelAfter) Evaluate(cfg space.Config) (float64, float64) {
	run, cost := c.Problem.Evaluate(cfg)
	if c.evals++; c.evals == c.n {
		c.cancel()
	}
	return run, cost
}

// TestPrepareHonoursCancellation: a transfer cancelled during source
// collection returns the context's error from Prepare and Run, without
// fitting a forest or scoring a pool.
func TestPrepareHonoursCancellation(t *testing.T) {
	for _, k := range []int{1, 12} {
		ctx, cancel := context.WithCancel(context.Background())
		sink := &obs.MemorySink{}
		ctx = obs.WithTracer(ctx, obs.New(sink))
		src := &cancelAfter{Problem: problem(t, "LU", machine.Westmere), n: k, cancel: cancel}
		out, err := Run(ctx, src, problem(t, "LU", machine.Sandybridge), smallOpts(3))
		cancel()
		if out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: Run returned (%v, %v), want (nil, context.Canceled)", k, out != nil, err)
		}
		if src.evals != k {
			t.Fatalf("k=%d: %d source evaluations, want %d", k, src.evals, k)
		}
		if fits := sink.ByKind(obs.KindModelFit); len(fits) != 0 {
			t.Fatalf("k=%d: model-fit events %+v, want none", k, fits)
		}
		for _, e := range sink.ByKind(obs.KindModelPredict) {
			if e.Detail == "pool-score" {
				t.Fatalf("k=%d: pool-score event %+v, want none", k, e)
			}
		}
	}
}

// runOn builds one workload of the test on machine m.
func runOn(t *testing.T, wl string, m machine.Machine) search.Problem {
	t.Helper()
	switch wl {
	case "HPL":
		return miniapps.NewProblem(miniapps.HPL(), m)
	case "RT":
		return miniapps.NewProblem(miniapps.RT(), m)
	}
	return problem(t, wl, m)
}

// runTargets runs one prelude on every target concurrently.
func runTargets(t *testing.T, pre *Prelude, tgts []search.Problem) []*Outcome {
	t.Helper()
	outs := make([]*Outcome, len(tgts))
	errs := make([]error, len(tgts))
	var wg sync.WaitGroup
	for i, tgt := range tgts {
		wg.Add(1)
		go func(i int, tgt search.Problem) {
			defer wg.Done()
			outs[i], errs[i] = pre.Run(context.Background(), tgt)
		}(i, tgt)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// TestPreludeMatchesComposedRun: core.Run, Prepare followed by Run, and
// the composition of the public RSp and RSb (two pools, each drawn and
// scored on the target) compute bit-identical outcomes, and one prelude
// run on several targets at once gives each what a fresh core.Run gives.
func TestPreludeMatchesComposedRun(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []string{"LU", "HPL", "RT"} {
		src := runOn(t, wl, machine.Westmere)
		tgts := []search.Problem{runOn(t, wl, machine.Sandybridge), runOn(t, wl, machine.Power7)}
		opt := smallOpts(2016)

		pre, err := Prepare(ctx, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		if pre.Surrogate == nil || len(pre.Best) != min(opt.NMax, opt.PoolSize) {
			t.Fatalf("%s: prelude holds surrogate %v and %d best configurations, want %d",
				wl, pre.Surrogate != nil, len(pre.Best), min(opt.NMax, opt.PoolSize))
		}
		checkKeptResults(t, wl, pre, src, opt)
		reused := runTargets(t, pre, tgts)
		for i, tgt := range tgts {
			fresh, err := Run(ctx, src, tgt, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := outcomeKey(composedRun(t, src, tgt, opt))
			if got := outcomeKey(fresh); got != want {
				t.Errorf("%s: core.Run differs from the composed public functions:\n%s\nwant\n%s", fresh.Target, got, want)
			}
			if got := outcomeKey(reused[i]); got != want {
				t.Errorf("%s: reused prelude differs from the composed public functions:\n%s\nwant\n%s", fresh.Target, got, want)
			}
		}
	}
}

// TestDegradedPreludeReused: a source too broken to fit a surrogate
// leaves a prelude with no model and no pool, and each target run on it
// falls back exactly as a fresh core.Run does.
func TestDegradedPreludeReused(t *testing.T) {
	ctx := context.Background()
	broken := func() search.Problem {
		return search.NewResilient(
			faults.Wrap(problem(t, "LU", machine.Westmere), faults.Rates{CompileFail: 0.97}, 77),
			search.ResilientOptions{Retries: 1})
	}
	pre, err := Prepare(ctx, broken(), smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if pre.Surrogate != nil || pre.Best != nil || pre.Cutoff != 0 || len(pre.Warnings) != 1 {
		t.Fatalf("degraded prelude: surrogate %v, best %d, cutoff %v, warnings %q",
			pre.Surrogate != nil, len(pre.Best), pre.Cutoff, pre.Warnings)
	}
	tgts := []search.Problem{problem(t, "LU", machine.Sandybridge), problem(t, "LU", machine.Power7)}
	for i, got := range runTargets(t, pre, tgts) {
		want, err := Run(ctx, broken(), tgts[i], smallOpts(7))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Degraded || outcomeKey(got) != outcomeKey(want) {
			t.Errorf("%s: degraded reuse differs from a fresh run:\n%s\nwant\n%s", got.Target, outcomeKey(got), outcomeKey(want))
		}
	}
}

// TestTracedRunScoresPoolOnce: RSp and RSb share the prelude's pool, so a
// traced core.Run scores it once — one pool-score event of PoolSize
// predictions — and computes what an untraced run computes.
func TestTracedRunScoresPoolOnce(t *testing.T) {
	src, tgt := problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge)
	opt := smallOpts(5)
	sink := &obs.MemorySink{}
	traced, err := Run(obs.WithTracer(context.Background(), obs.New(sink)), src, tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	var pool []obs.Event
	for _, e := range sink.ByKind(obs.KindModelPredict) {
		if e.Detail == "pool-score" {
			pool = append(pool, e)
		}
	}
	if len(pool) != 1 || pool[0].N != opt.PoolSize {
		t.Fatalf("pool-score events %+v, want one of N=%d", pool, opt.PoolSize)
	}
	if fits := sink.ByKind(obs.KindModelFit); len(fits) != 1 {
		t.Fatalf("model-fit events %+v, want one", fits)
	}
	untraced, err := Run(context.Background(), src, tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if outcomeKey(traced) != outcomeKey(untraced) {
		t.Fatal("traced outcome differs from untraced")
	}
}
