package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
)

func problem(t *testing.T, kernel string, m machine.Machine) search.Problem {
	t.Helper()
	k, err := kernels.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	return kernels.NewProblem(k, sim.Target{Machine: m, Compiler: machine.GNU, Threads: 1})
}

// smallOpts keeps unit tests fast; the full-scale settings live in the
// experiments package.
func smallOpts(seed uint64) Options {
	return Options{
		NMax:     40,
		PoolSize: 1500,
		DeltaPct: 20,
		Forest:   forest.Params{Trees: 40},
		Seed:     seed,
	}
}

func TestRunProducesCompleteOutcome(t *testing.T) {
	out, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ta) != 40 {
		t.Fatalf("Ta size %d", len(out.Ta))
	}
	if len(out.RS.Records) != 40 {
		t.Fatalf("target RS evaluated %d", len(out.RS.Records))
	}
	if len(out.RSb.Records) != 40 {
		t.Fatalf("RSb evaluated %d", len(out.RSb.Records))
	}
	for _, name := range []string{"RSp", "RSb", "RSpf", "RSbf"} {
		if _, ok := out.Speedups[name]; !ok {
			t.Fatalf("missing speedups for %s", name)
		}
	}
	if len(out.SourceRuns) != len(out.TargetRuns) {
		t.Fatal("correlation pairs mismatched")
	}
}

func TestCommonRandomNumbers(t *testing.T) {
	// The target RS must evaluate exactly the configurations of Ta, in
	// Ta's order — the paper's variance-reduction setup.
	out, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Ta {
		if out.Ta[i].Config.Key() != out.RS.Records[i].Config.Key() {
			t.Fatal("target RS order deviates from source RS order")
		}
	}
}

func TestDeterministicOutcome(t *testing.T) {
	a, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Pearson != b.Pearson || a.Speedups["RSb"] != b.Speedups["RSb"] {
		t.Fatal("transfer experiment not deterministic under the same seed")
	}
}

// fullOpts runs at the paper's scale with a trimmed pool for test speed.
func fullOpts(seed uint64) Options {
	return Options{
		NMax:     100,
		PoolSize: 4000,
		DeltaPct: 20,
		Forest:   forest.Params{Trees: 60},
		Seed:     seed,
	}
}

func TestIntelPairCorrelatesAndRSbWins(t *testing.T) {
	// Westmere -> Sandybridge on LU: the paper's headline case. The
	// correlation must be strong and RSb must succeed.
	out, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), fullOpts(2016))
	if err != nil {
		t.Fatal(err)
	}
	if out.Pearson < 0.8 || out.Spearman < 0.8 {
		t.Fatalf("Intel pair correlation too weak: pearson=%.3f spearman=%.3f",
			out.Pearson, out.Spearman)
	}
	sb := out.Speedups["RSb"]
	if sb.SearchTime <= 1.5 {
		t.Fatalf("RSb search-time speedup %.2f, expected clearly > 1 on correlated machines", sb.SearchTime)
	}
	if sb.Performance < 1.0 {
		t.Fatalf("RSb performance speedup %.3f, expected >= 1", sb.Performance)
	}
}

func TestBiasingBeatsPruning(t *testing.T) {
	// Averaged over seeds at the paper's budget, RSb must dominate RSp in
	// search-time speedup (the paper's "biasing is better than pruning").
	var sumB, sumP float64
	seeds := []uint64{1, 2, 3}
	for _, seed := range seeds {
		out, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), fullOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		sumB += out.Speedups["RSb"].SearchTime
		sumP += out.Speedups["RSp"].SearchTime
	}
	if sumB <= sumP {
		t.Fatalf("mean RSb search speedup (%.1f) not above RSp (%.1f)",
			sumB/float64(len(seeds)), sumP/float64(len(seeds)))
	}
}

func TestModelFreeVariantsRestrictedToTa(t *testing.T) {
	out, err := Run(context.Background(), problem(t, "MM", machine.Westmere), problem(t, "MM", machine.Sandybridge), smallOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	inTa := map[string]bool{}
	for _, s := range out.Ta {
		inTa[s.Config.Key()] = true
	}
	for _, rec := range append(out.RSpf.Records, out.RSbf.Records...) {
		if !inTa[rec.Config.Key()] {
			t.Fatal("model-free variant escaped Ta")
		}
	}
	// RSbf evaluates all of Ta, so its best equals RS's best run time
	// exactly (same configs, same machine): performance speedup is 1.
	perf := out.Speedups["RSbf"].Performance
	if perf < 0.999 || perf > 1.001 {
		t.Fatalf("RSbf performance speedup = %.4f, must be 1 (same 100 configs as RS)", perf)
	}
}

func TestRSbfOrderedBySourceTime(t *testing.T) {
	out, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), smallOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	srcTime := map[string]float64{}
	for _, s := range out.Ta {
		srcTime[s.Config.Key()] = s.RunTime
	}
	prev := -1.0
	for _, rec := range out.RSbf.Records {
		st := srcTime[rec.Config.Key()]
		if st < prev {
			t.Fatal("RSbf not ordered by source run time")
		}
		prev = st
	}
}

func TestTransferFailsOnXGene(t *testing.T) {
	// Sandybridge -> X-Gene: the paper found no significant performance
	// speedups (its LU row reads 1.00), and the run-time correlation
	// collapses. Check both across seeds.
	var sumPerf, sumCorr float64
	seeds := []uint64{1, 2, 3}
	for _, seed := range seeds {
		out, err := Run(context.Background(), problem(t, "LU", machine.Sandybridge), problem(t, "LU", machine.XGene), fullOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		sumPerf += out.Speedups["RSb"].Performance
		sumCorr += out.Spearman
	}
	meanPerf := sumPerf / float64(len(seeds))
	meanCorr := sumCorr / float64(len(seeds))
	if meanPerf > 1.15 {
		t.Fatalf("X-Gene mean RSb performance speedup %.2f; paper reports ~1.00", meanPerf)
	}
	if meanCorr > 0.5 {
		t.Fatalf("X-Gene mean rank correlation %.2f; should have collapsed", meanCorr)
	}
}

func TestComputeSpeedupsPaperExample(t *testing.T) {
	// The defining example of Section IV-D: RS finds run time 5 at clock
	// 100; RSb finds run time 3 at clock 80, passing run time <= 5 at
	// clock 50. Performance speedup 5/3, search-time speedup 2.
	rs := &search.Result{Records: []search.Record{
		{Config: space.Config{0}, RunTime: 9, Elapsed: 40},
		{Config: space.Config{1}, RunTime: 5, Elapsed: 100},
	}}
	rsb := &search.Result{Records: []search.Record{
		{Config: space.Config{2}, RunTime: 5, Elapsed: 50},
		{Config: space.Config{3}, RunTime: 3, Elapsed: 80},
	}}
	s := ComputeSpeedups(rs, rsb)
	if s.Performance < 1.66 || s.Performance > 1.67 {
		t.Fatalf("performance speedup = %v, want 5/3", s.Performance)
	}
	if s.SearchTime != 2 {
		t.Fatalf("search speedup = %v, want 2", s.SearchTime)
	}
	if !s.Success {
		t.Fatal("paper example should be a success")
	}
}

func TestComputeSpeedupsNeverReached(t *testing.T) {
	rs := &search.Result{Records: []search.Record{
		{Config: space.Config{0}, RunTime: 5, Elapsed: 100},
	}}
	bad := &search.Result{Records: []search.Record{
		{Config: space.Config{1}, RunTime: 8, Elapsed: 10},
	}}
	s := ComputeSpeedups(rs, bad)
	if s.SearchTime != 0 {
		t.Fatalf("unreached target must give 0 search speedup (paper's 0.00 entries), got %v", s.SearchTime)
	}
	if s.Success {
		t.Fatal("failure marked successful")
	}
}

func TestFitSurrogateErrors(t *testing.T) {
	spc := space.New(space.NewBoolean("x"))
	if _, err := FitSurrogate(nil, spc, "src", forest.Params{}, rng.New(1)); err == nil {
		t.Fatal("empty Ta accepted")
	}
}

// shiftedSpace is a problem whose space differs from the wrapped one
// only in the first parameter's level values: same width, same kinds.
type shiftedSpace struct{ search.Problem }

func (p shiftedSpace) Space() *space.Space {
	s := p.Problem.Space()
	params := make([]space.Param, s.NumParams())
	for i := range params {
		params[i] = s.Param(i)
	}
	first := params[0]
	params[0] = space.NewIntRange(first.Name, first.Value(0)+1, first.Value(0)+first.Levels())
	return space.New(params...)
}

func TestMismatchedSpacesRejected(t *testing.T) {
	ctx := context.Background()
	mm := problem(t, "MM", machine.Westmere)
	lu := problem(t, "LU", machine.Sandybridge)
	if _, err := Run(ctx, mm, lu, smallOpts(7)); err == nil {
		t.Fatal("cross-kernel transfer with different spaces accepted")
	}
	// Same width, different levels: encoding the target's configurations
	// in the source space would silently mean other values.
	src := problem(t, "LU", machine.Westmere)
	shifted := shiftedSpace{lu}
	if shifted.Space().NumParams() != lu.Space().NumParams() {
		t.Fatal("shifted space changed width")
	}
	if _, err := Run(ctx, src, shifted, smallOpts(7)); err == nil {
		t.Fatal("transfer between spaces differing in levels accepted")
	}
	pre, err := Prepare(ctx, src, smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Run(ctx, shifted); err == nil {
		t.Fatal("prelude ran on a target whose space differs in levels")
	}
}

// TestNewSurrogate: the constructor refuses a space of another width,
// and config scoring, of a batch (search.ScoreConfigs) or one
// configuration at a time, under a space that encodes differently (same
// width, other level values) falls back to encoding under that space,
// so it still equals the walk over the caller's encoding. The batch is
// sharded over Forest.Workers goroutines, so it is checked at 1, 2, 3
// and 8 of them.
func TestNewSurrogate(t *testing.T) {
	lu := problem(t, "LU", machine.Westmere)
	_, ta := Collect(context.Background(), lu, 30, rng.New(5))
	for _, workers := range []int{1, 2, 3, 8} {
		sur, err := FitSurrogate(ta, lu.Space(), "src", forest.Params{Trees: 10, Workers: workers}, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSurrogate(sur.Forest, problem(t, "MM", machine.Westmere).Space(), "mm"); err == nil {
			t.Fatal("NewSurrogate bound an LU forest to MM's space")
		}
		for _, spc := range []*space.Space{lu.Space(), problem(t, "LU", machine.Sandybridge).Space(), shiftedSpace{lu}.Space()} {
			pool := spc.SamplePool(300, rng.New(7))
			got := search.ScoreConfigs(sur, spc, pool)
			score := sur.ConfigScorer(spc)
			for i, c := range pool {
				want := sur.Forest.Predict(spc.Encode(c))
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("workers %d, row %d: ScoreConfigs %v, walk %v", workers, i, got[i], want)
				}
				if one := score(c); math.Float64bits(one) != math.Float64bits(want) {
					t.Fatalf("workers %d, row %d: ConfigScorer %v, walk %v", workers, i, one, want)
				}
			}
		}
	}
}

// TestConfigScorerAllocs: scoring one candidate through a ConfigScorer,
// as RSp's scan does, allocates nothing, whether the scan's space is the
// surrogate's own or another pointer to an Equal space (as in core.Run,
// where source and target build their own spaces). The space comparison
// and the bitvector scratch are paid once per scorer, not per candidate.
func TestConfigScorerAllocs(t *testing.T) {
	lu := problem(t, "LU", machine.Westmere)
	_, ta := Collect(context.Background(), lu, 30, rng.New(5))
	sur, err := FitSurrogate(ta, lu.Space(), "src", forest.Params{Trees: 10}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, spc := range []*space.Space{lu.Space(), problem(t, "LU", machine.Sandybridge).Space()} {
		c := spc.SamplePool(1, rng.New(7))[0]
		score := sur.ConfigScorer(spc)
		if allocs := testing.AllocsPerRun(100, func() { score(c) }); allocs != 0 {
			t.Errorf("ConfigScorer allocates %v times per candidate, want 0", allocs)
		}
	}
}

func TestSurrogateTracksTarget(t *testing.T) {
	out, err := Run(context.Background(), problem(t, "LU", machine.Westmere), problem(t, "LU", machine.Sandybridge), smallOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if out.SurrogateSpearman < 0.5 {
		t.Fatalf("surrogate rank correlation with target = %.3f, too weak", out.SurrogateSpearman)
	}
}

func mustMachine(t *testing.T, name string) machine.Machine {
	t.Helper()
	m, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOutcomeInternalConsistency(t *testing.T) {
	out, err := Run(context.Background(), problem(t, "COR", machine.Westmere), problem(t, "COR", machine.Sandybridge), smallOpts(41))
	if err != nil {
		t.Fatal(err)
	}
	// RSpf's evaluated + skipped must cover Ta exactly.
	if len(out.RSpf.Records)+out.RSpf.Skipped != len(out.Ta) {
		t.Fatalf("RSpf covered %d+%d of %d", len(out.RSpf.Records), out.RSpf.Skipped, len(out.Ta))
	}
	// RSbf evaluates exactly Ta.
	if len(out.RSbf.Records) != len(out.Ta) {
		t.Fatalf("RSbf evaluated %d of %d", len(out.RSbf.Records), len(out.Ta))
	}
	// Source runs pair with target runs index-by-index.
	for i := range out.SourceRuns {
		if out.SourceRuns[i] != out.Ta[i].RunTime {
			t.Fatal("source run pairing broken")
		}
	}
	// Every variant's clock is strictly increasing.
	for _, res := range []*search.Result{out.RS, out.RSp, out.RSb, out.RSpf, out.RSbf} {
		prev := 0.0
		for _, rec := range res.Records {
			if rec.Elapsed <= prev {
				t.Fatalf("%s clock not increasing", res.Algorithm)
			}
			prev = rec.Elapsed
		}
	}
}

func TestFitSurrogateRejectsTooFewValid(t *testing.T) {
	spc := space.New(space.NewIntRange("x", 0, 9))
	ta := search.Dataset{
		{Config: space.Config{1}, RunTime: 1},
		{Config: space.Config{2}, RunTime: math.Inf(1)},
		{Config: space.Config{3}, RunTime: math.NaN()},
	}
	_, err := FitSurrogate(ta, spc, "test", forest.Params{Trees: 5}, rng.New(1))
	if !errors.Is(err, ErrTooFewValid) {
		t.Fatalf("want ErrTooFewValid, got %v", err)
	}
}

func TestTransferFallsBackWhenSourceFails(t *testing.T) {
	// Near-total compile failure on the source machine: too few valid
	// rows survive to fit the surrogate, so Transfer must degrade to
	// plain RS — with a warning — rather than error out.
	src := search.NewResilient(
		faults.Wrap(problem(t, "LU", machine.Westmere), faults.Rates{CompileFail: 0.97}, 77),
		search.ResilientOptions{Retries: 1})
	out, err := Run(context.Background(), src, problem(t, "LU", machine.Sandybridge), smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("97% source failure did not trigger degraded mode")
	}
	if len(out.Warnings) == 0 {
		t.Fatal("degraded outcome carries no warning")
	}
	if out.FailureCounts["SourceRS"].Failed == 0 {
		t.Fatal("failure counts not recorded for the source run")
	}
	// All five variants still produced results. RSpf/RSbf are restricted
	// to Ta, which an all-failed source leaves empty, so they may hold
	// zero records — but must not be nil.
	for name, res := range map[string]*search.Result{
		"RS": out.RS, "RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf,
	} {
		if res == nil {
			t.Fatalf("variant %s missing after fallback", name)
		}
	}
	for name, res := range map[string]*search.Result{"RS": out.RS, "RSp": out.RSp, "RSb": out.RSb} {
		if len(res.Records) == 0 {
			t.Fatalf("variant %s evaluated nothing after fallback", name)
		}
	}
	if out.RSp.Algorithm != "RSp(RS-fallback)" || out.RSb.Algorithm != "RSb(RS-fallback)" {
		t.Fatalf("fallback not labelled: %q / %q", out.RSp.Algorithm, out.RSb.Algorithm)
	}
	for name := range out.Speedups {
		if _, ok := out.Speedups[name]; !ok {
			t.Fatalf("missing speedups for %s", name)
		}
	}
}

func TestRunWithModerateFaultsStaysConsistent(t *testing.T) {
	// A 30% failure rate on both machines: every variant completes, the
	// correlation panel stays index-paired, and best-found values are
	// finite.
	wrap := func(p search.Problem, seed uint64) search.Problem {
		return search.NewResilient(
			faults.Wrap(p, faults.Profile(p.Name()).ScaledTo(0.30), seed),
			search.ResilientOptions{Retries: 2, Backoff: 0.5})
	}
	out, err := Run(context.Background(),
		wrap(problem(t, "LU", machine.Westmere), 5),
		wrap(problem(t, "LU", machine.Sandybridge), 6),
		smallOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.SourceRuns) != len(out.TargetRuns) {
		t.Fatal("correlation pairs mismatched under faults")
	}
	for _, run := range append(append([]float64{}, out.SourceRuns...), out.TargetRuns...) {
		if math.IsNaN(run) || math.IsInf(run, 0) {
			t.Fatal("non-finite run in correlation panel")
		}
	}
	for name, res := range map[string]*search.Result{
		"RS": out.RS, "RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf,
	} {
		if best, _, ok := res.Best(); ok {
			if math.IsNaN(best.RunTime) || math.IsInf(best.RunTime, 0) {
				t.Fatalf("%s best is non-finite", name)
			}
		}
		counts, want := out.FailureCounts[name], res.Counts()
		if counts != want {
			t.Fatalf("%s failure counts stale: %+v vs %+v", name, counts, want)
		}
	}
}
