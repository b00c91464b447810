package search

import (
	"context"

	"errors"
	"math"
	"testing"

	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/space"
)

// bowl is a synthetic problem with a known optimum: run time is a convex
// function of the distance to a target configuration.
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

func (b *bowl) optimum() space.Config {
	c := make(space.Config, len(b.target))
	copy(c, b.target)
	return c
}

func TestRSNoRepeatsAndBudget(t *testing.T) {
	p := newBowl()
	res := RS(context.Background(), p, 50, rng.New(1))
	if len(res.Records) != 50 {
		t.Fatalf("RS evaluated %d configs, want 50", len(res.Records))
	}
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Config.Key()] {
			t.Fatal("RS repeated a configuration")
		}
		seen[rec.Config.Key()] = true
	}
}

func TestRSExhaustsSmallSpace(t *testing.T) {
	spc := space.New(space.NewIntRange("a", 0, 4))
	p := &bowl{spc: spc, target: []int{2}}
	res := RS(context.Background(), p, 100, rng.New(2))
	if len(res.Records) != 5 {
		t.Fatalf("RS on 5-config space evaluated %d", len(res.Records))
	}
	best, _, _ := res.Best()
	if best.RunTime != 1 {
		t.Fatalf("exhaustive RS missed the optimum: %v", best.RunTime)
	}
}

func TestRSCommonRandomNumbers(t *testing.T) {
	p1 := newBowl()
	p2 := newBowl()
	r1 := RS(context.Background(), p1, 30, rng.NewNamed(7, "crn"))
	r2 := RS(context.Background(), p2, 30, rng.NewNamed(7, "crn"))
	for i := range r1.Records {
		if r1.Records[i].Config.Key() != r2.Records[i].Config.Key() {
			t.Fatal("same-seeded RS runs diverged")
		}
	}
}

func TestElapsedMonotone(t *testing.T) {
	res := RS(context.Background(), newBowl(), 40, rng.New(3))
	prev := 0.0
	for _, rec := range res.Records {
		if rec.Elapsed <= prev {
			t.Fatal("search clock not strictly increasing")
		}
		prev = rec.Elapsed
	}
	if res.Elapsed() != prev {
		t.Fatal("Elapsed() mismatch")
	}
}

func TestBestAndTimeToReach(t *testing.T) {
	res := RS(context.Background(), newBowl(), 60, rng.New(4))
	best, idx, ok := res.Best()
	if !ok {
		t.Fatal("no best")
	}
	if res.Records[idx].RunTime != best.RunTime {
		t.Fatal("Best index mismatch")
	}
	tt, ok := res.TimeToReach(best.RunTime)
	if !ok || tt != res.Records[idx].Elapsed {
		t.Fatal("TimeToReach(best) should be the best's elapsed clock")
	}
	if _, ok := res.TimeToReach(0.5); ok {
		t.Fatal("TimeToReach of unreachable target succeeded")
	}
}

func TestBestSoFarNonIncreasing(t *testing.T) {
	res := RS(context.Background(), newBowl(), 60, rng.New(5))
	traj := res.BestSoFar()
	for i := 1; i < len(traj); i++ {
		if traj[i] > traj[i-1] {
			t.Fatal("best-so-far trajectory increased")
		}
	}
}

// fitModel trains a forest surrogate on an RS sample of the bowl —
// standing in for the source machine's data T_a.
func fitModel(t *testing.T, p Problem, n int, seed uint64) (Model, Dataset) {
	t.Helper()
	res := RS(context.Background(), p, n, rng.New(seed))
	ds := DatasetFrom(res)
	X, y := ds.Encode(p.Space())
	f, err := forest.Fit(X, y, forest.Params{Trees: 40}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return f, ds
}

func TestRSbFindsOptimumRegionFast(t *testing.T) {
	src := newBowl()
	model, _ := fitModel(t, src, 120, 11)
	tgt := newBowl()
	res := RSb(context.Background(), tgt, model, RSbOptions{NMax: 20, PoolSize: 2000}, rng.New(12))
	if len(res.Records) != 20 {
		t.Fatalf("RSb evaluated %d", len(res.Records))
	}
	best, _, _ := res.Best()
	// The model was trained on the same landscape: the best of 20 biased
	// evaluations must be near the optimum.
	if best.RunTime > 5 {
		t.Fatalf("RSb best %.2f too far from optimum 1.0", best.RunTime)
	}
	// And it must find it much faster than plain RS does on average.
	rs := RS(context.Background(), newBowl(), 20, rng.New(13))
	rsBest, _, _ := rs.Best()
	if best.RunTime >= rsBest.RunTime {
		t.Fatalf("RSb (%.2f) not better than RS (%.2f) with a perfect-source model",
			best.RunTime, rsBest.RunTime)
	}
}

func TestRSbEvaluatesInPredictedOrder(t *testing.T) {
	src := newBowl()
	model, _ := fitModel(t, src, 100, 21)
	tgt := newBowl()
	res := RSb(context.Background(), tgt, model, RSbOptions{NMax: 15, PoolSize: 500}, rng.New(22))
	spc := tgt.Space()
	prev := math.Inf(-1)
	for _, rec := range res.Records {
		pred := model.Predict(spc.Encode(rec.Config))
		if pred < prev-1e-9 {
			t.Fatal("RSb did not evaluate in ascending predicted order")
		}
		prev = pred
	}
}

func TestRSpSkipsPredictedPoor(t *testing.T) {
	src := newBowl()
	model, _ := fitModel(t, src, 120, 31)
	tgt := newBowl()
	res := RSp(context.Background(), tgt, model, RSpOptions{NMax: 30, PoolSize: 2000, DeltaPct: 20}, rng.New(32), rng.New(33))
	if len(res.Records) == 0 {
		t.Fatal("RSp evaluated nothing")
	}
	if res.Skipped == 0 {
		t.Fatal("RSp with a 20% cutoff skipped nothing")
	}
	// Evaluated configs should be much better than random on average.
	sum := 0.0
	for _, rec := range res.Records {
		sum += rec.RunTime
	}
	meanEval := sum / float64(len(res.Records))
	if meanEval > 40 {
		t.Fatalf("RSp evaluated configs averaging %.1f — cutoff not effective", meanEval)
	}
}

func TestRSpSharesCandidateStreamWithRS(t *testing.T) {
	// With a common seed, RSp's considered sequence must be RS's sequence:
	// RSp's evaluated configs appear in RS's (longer) sequence, in order.
	src := newBowl()
	model, _ := fitModel(t, src, 120, 41)
	seq := Sequence(newBowl().Space(), 3000, rng.NewNamed(5, "stream"))
	res := RSp(context.Background(), newBowl(), model, RSpOptions{NMax: 25, PoolSize: 1000}, rng.NewNamed(5, "stream"), rng.New(42))
	pos := 0
	for _, rec := range res.Records {
		found := false
		for pos < len(seq) {
			if seq[pos].Key() == rec.Config.Key() {
				found = true
				pos++
				break
			}
			pos++
		}
		if !found {
			t.Fatal("RSp evaluation order is not a subsequence of the shared RS stream")
		}
	}
}

func TestRSpfRestrictedToTa(t *testing.T) {
	src := newBowl()
	srcRes := RS(context.Background(), src, 50, rng.New(51))
	ta := DatasetFrom(srcRes)
	res := RSpf(context.Background(), newBowl(), ta, 20)
	// ~20% of 50 = ~10 evaluations.
	if len(res.Records) == 0 || len(res.Records) > 15 {
		t.Fatalf("RSpf evaluated %d configs, expected about 10", len(res.Records))
	}
	inTa := map[string]bool{}
	for _, s := range ta {
		inTa[s.Config.Key()] = true
	}
	for _, rec := range res.Records {
		if !inTa[rec.Config.Key()] {
			t.Fatal("RSpf evaluated a config outside Ta")
		}
	}
	if res.Skipped != len(ta)-len(res.Records) {
		t.Fatalf("RSpf skip count %d inconsistent", res.Skipped)
	}
}

func TestRSbfSortedBySourceTimes(t *testing.T) {
	src := newBowl()
	srcRes := RS(context.Background(), src, 40, rng.New(61))
	ta := DatasetFrom(srcRes)
	res := RSbf(context.Background(), newBowl(), ta)
	if len(res.Records) != len(ta) {
		t.Fatalf("RSbf evaluated %d of %d", len(res.Records), len(ta))
	}
	// Source times of the evaluation order must be ascending. Here source
	// and target are the same landscape, so target times are ascending too.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].RunTime < res.Records[i-1].RunTime {
			t.Fatal("RSbf order not ascending in source run time on identical landscapes")
		}
	}
}

func TestReplayExactOrder(t *testing.T) {
	seq := Sequence(newBowl().Space(), 20, rng.New(71))
	res := Replay(context.Background(), newBowl(), seq, "replay")
	if len(res.Records) != 20 {
		t.Fatal("replay wrong length")
	}
	for i := range seq {
		if res.Records[i].Config.Key() != seq[i].Key() {
			t.Fatal("replay deviated from sequence")
		}
	}
}

func TestDatasetEncode(t *testing.T) {
	p := newBowl()
	res := RS(context.Background(), p, 10, rng.New(81))
	ds := DatasetFrom(res)
	X, y := ds.Encode(p.Space())
	if len(X) != 10 || len(y) != 10 {
		t.Fatal("encode shape wrong")
	}
	for i := range y {
		if y[i] != res.Records[i].RunTime {
			t.Fatal("targets mismatch")
		}
	}
}

func TestAnnealImproves(t *testing.T) {
	p := newBowl()
	res := Drive(context.Background(), p, NewAnneal(p.Space(), rng.New(91), 0.95), 150)
	best, _, _ := res.Best()
	if best.RunTime > 3 {
		t.Fatalf("SA best %.2f after 150 evals on a smooth bowl", best.RunTime)
	}
}

func TestGeneticImproves(t *testing.T) {
	p := newBowl()
	res := Drive(context.Background(), p, NewGenetic(p.Space(), rng.New(92), 16, 0.15), 200)
	best, _, _ := res.Best()
	if best.RunTime > 3 {
		t.Fatalf("GA best %.2f after 200 evals on a smooth bowl", best.RunTime)
	}
}

func TestPatternSearchConvergesOnConvex(t *testing.T) {
	p := newBowl()
	res := Drive(context.Background(), p, NewPattern(p.Space(), rng.New(93), 4), 150)
	best, _, _ := res.Best()
	if best.RunTime > 2 {
		t.Fatalf("pattern search best %.2f on convex bowl", best.RunTime)
	}
}

func TestDriveNoDuplicateEvaluations(t *testing.T) {
	p := newBowl()
	res := Drive(context.Background(), p, NewAnneal(p.Space(), rng.New(94), 0.9), 100)
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Config.Key()] {
			t.Fatal("Drive evaluated a duplicate")
		}
		seen[rec.Config.Key()] = true
	}
}

// checkRecordsMatchEvaluation fails unless every record's configuration
// re-evaluates to the record's run time: a record whose levels changed
// after its evaluation (a technique's reused buffer) fails it.
func checkRecordsMatchEvaluation(t *testing.T, p Problem, res *Result) {
	t.Helper()
	for i, rec := range res.Records {
		if run, _ := p.Evaluate(rec.Config); math.Float64bits(run) != math.Float64bits(rec.RunTime) {
			t.Fatalf("%s record %d: config %v re-evaluates to %v, recorded %v", res.Algorithm, i, rec.Config, run, rec.RunTime)
		}
	}
}

// TestTechniquesReuseProposalBuffers pins that a started SA, GA or
// pattern search proposes and takes reports without allocating, so a
// duplicate proposal, which Drive answers from its cache, makes no
// garbage; and that Drive keeps copies, not the reused buffers.
func TestTechniquesReuseProposalBuffers(t *testing.T) {
	p := newBowl()
	for _, tech := range []Technique{
		NewAnneal(p.Space(), rng.New(96), 0.95),
		NewGenetic(p.Space(), rng.New(97), 8, 0.15),
		NewPattern(p.Space(), rng.New(98), 4),
	} {
		res := Drive(context.Background(), p, tech, 40)
		checkRecordsMatchEvaluation(t, p, res)
		allocs := testing.AllocsPerRun(100, func() {
			if c, ok := tech.Propose(); ok {
				tech.Report(c, math.MaxFloat64)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per proposal and report, want 0", tech.Name(), allocs)
		}
	}
}

func TestRandomTechnique(t *testing.T) {
	p := newBowl()
	res := Drive(context.Background(), p, NewRandomTechnique(p.Space(), rng.New(95)), 50)
	if len(res.Records) != 50 {
		t.Fatalf("random technique evaluated %d", len(res.Records))
	}
}

func TestRSpDefaults(t *testing.T) {
	o := RSpOptions{}.withDefaults()
	if o.NMax != 100 || o.PoolSize != 10000 || o.DeltaPct != 20 {
		t.Fatalf("RSp defaults wrong: %+v (paper: nmax=100, N=10000, delta=20)", o)
	}
	ob := RSbOptions{}.withDefaults()
	if ob.NMax != 100 || ob.PoolSize != 10000 {
		t.Fatalf("RSb defaults wrong: %+v", ob)
	}
}

func TestAnnealWarmStart(t *testing.T) {
	p := newBowl()
	a := NewAnneal(p.Space(), rng.New(101), 0.95)
	a.SetStart(p.optimum())
	res := Drive(context.Background(), p, a, 30)
	if res.Records[0].RunTime != 1 {
		t.Fatalf("warm start ignored: first evaluation %v", res.Records[0].RunTime)
	}
}

func TestRSbAActiveRefit(t *testing.T) {
	src := newBowl()
	model, ta := fitModel(t, src, 60, 201)
	tgt := newBowl()
	refits := 0
	res, err := RSbA(context.Background(), tgt, model, ta, RSbOptions{NMax: 30, PoolSize: 1000}, 10,
		func(d Dataset) (Model, error) {
			refits++
			X, y := d.Encode(tgt.Space())
			return forest.Fit(X, y, forest.Params{Trees: 25}, rng.New(uint64(300+refits)))
		}, rng.New(202))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 30 {
		t.Fatalf("RSbA evaluated %d", len(res.Records))
	}
	if refits != 3 {
		t.Fatalf("expected 3 refits (every 10 of 30), got %d", refits)
	}
	best, _, _ := res.Best()
	if best.RunTime > 5 {
		t.Fatalf("RSbA best %.2f too far from optimum", best.RunTime)
	}
	// No duplicate evaluations from the pool.
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Config.Key()] {
			t.Fatal("RSbA repeated a configuration")
		}
		seen[rec.Config.Key()] = true
	}
}

func TestRSbARefitErrorPropagates(t *testing.T) {
	src := newBowl()
	model, ta := fitModel(t, src, 40, 211)
	tgt := newBowl()
	_, err := RSbA(context.Background(), tgt, model, ta, RSbOptions{NMax: 20, PoolSize: 200}, 5,
		func(Dataset) (Model, error) { return nil, errTest }, rng.New(212))
	if err == nil {
		t.Fatal("refit error swallowed")
	}
}

var errTest = errors.New("refit failed")

func TestSampleBestOverTime(t *testing.T) {
	res := &Result{Records: []Record{
		{Config: space.Config{0}, RunTime: 9, Elapsed: 10},
		{Config: space.Config{1}, RunTime: 5, Elapsed: 20},
		{Config: space.Config{2}, RunTime: 7, Elapsed: 30},
	}}
	got := res.SampleBestOverTime([]float64{5, 10, 15, 25, 100})
	want := []float64{math.Inf(1), 9, 9, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample at %d = %v, want %v", i, got[i], want[i])
		}
	}
}
