package opentuner

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// rosen is a synthetic problem: a discretized non-convex valley.
type rosen struct {
	spc *space.Space
}

func newRosen() *rosen {
	return &rosen{spc: space.New(
		space.NewIntRange("x", 0, 20),
		space.NewIntRange("y", 0, 20),
	)}
}

func (p *rosen) Name() string        { return "rosen" }
func (p *rosen) Space() *space.Space { return p.spc }
func (p *rosen) Evaluate(c space.Config) (float64, float64) {
	x := float64(c[0])/10 - 1
	y := float64(c[1])/10 - 1
	run := 1 + 100*(y-x*x)*(y-x*x) + (1-x)*(1-x)
	return run, run + 0.1
}

func TestTunerRespectsBudget(t *testing.T) {
	tun := New(Options{NMax: 60}, rng.New(1))
	res, pulls := tun.Run(context.Background(), newRosen())
	if len(res.Records) != 60 {
		t.Fatalf("evaluated %d configs, budget 60", len(res.Records))
	}
	total := 0
	for _, n := range pulls {
		total += n
	}
	if total < 60 {
		t.Fatalf("pulls %d below evaluations", total)
	}
	if len(pulls) != 4 {
		t.Fatalf("default ensemble should have 4 techniques, got %v", pulls)
	}
}

func TestTunerDeterministic(t *testing.T) {
	r1, _ := New(Options{NMax: 50}, rng.New(7)).Run(context.Background(), newRosen())
	r2, _ := New(Options{NMax: 50}, rng.New(7)).Run(context.Background(), newRosen())
	b1, _, _ := r1.Best()
	b2, _, _ := r2.Best()
	if b1.RunTime != b2.RunTime || len(r1.Records) != len(r2.Records) {
		t.Fatal("tuner not deterministic under a fixed seed")
	}
}

func TestTunerImprovesOverBudget(t *testing.T) {
	res, _ := New(Options{NMax: 120}, rng.New(3)).Run(context.Background(), newRosen())
	best, _, _ := res.Best()
	if best.RunTime > 3 {
		t.Fatalf("ensemble best %.2f after 120 evals on rosenbrock grid", best.RunTime)
	}
}

func TestTunerBeatsOrMatchesPureRandom(t *testing.T) {
	// Across a few seeds, the ensemble should be at least as good as
	// pure random sampling with the same budget.
	var ensWins int
	for seed := uint64(1); seed <= 5; seed++ {
		res, _ := New(Options{NMax: 80}, rng.New(seed)).Run(context.Background(), newRosen())
		ensBest, _, _ := res.Best()
		rs := search.RS(context.Background(), newRosen(), 80, rng.New(seed+100))
		rsBest, _, _ := rs.Best()
		if ensBest.RunTime <= rsBest.RunTime {
			ensWins++
		}
	}
	if ensWins < 3 {
		t.Fatalf("ensemble beat random in only %d/5 seeds", ensWins)
	}
}

func TestNoDuplicateEvaluations(t *testing.T) {
	res, _ := New(Options{NMax: 100}, rng.New(11)).Run(context.Background(), newRosen())
	seen := map[string]bool{}
	for _, rec := range res.Records {
		if seen[rec.Config.Key()] {
			t.Fatal("duplicate evaluation spent budget")
		}
		seen[rec.Config.Key()] = true
	}
}

func TestBanditShiftsBudgetTowardProductiveArms(t *testing.T) {
	_, pulls := New(Options{NMax: 150}, rng.New(13)).Run(context.Background(), newRosen())
	// No arm should monopolize everything, and no arm should starve
	// completely (UCB explores).
	for name, n := range pulls {
		if n == 0 {
			t.Fatalf("technique %s starved", name)
		}
	}
}

func TestTunerOnHPL(t *testing.T) {
	// The paper's actual use: tune HPL through the ensemble.
	p := miniapps.NewProblem(miniapps.HPL(), machine.Sandybridge)
	res, _ := New(Options{NMax: 60}, rng.New(17)).Run(context.Background(), p)
	if len(res.Records) != 60 {
		t.Fatalf("evaluated %d", len(res.Records))
	}
	best, _, _ := res.Best()
	traj := res.BestSoFar()
	if best.RunTime >= traj[0] && traj[0] == traj[len(traj)-1] {
		t.Fatal("tuner made no progress on HPL")
	}
}

func TestElapsedMonotone(t *testing.T) {
	res, _ := New(Options{NMax: 50}, rng.New(19)).Run(context.Background(), newRosen())
	prev := 0.0
	for _, rec := range res.Records {
		if rec.Elapsed <= prev {
			t.Fatal("elapsed clock not increasing")
		}
		prev = rec.Elapsed
	}
}

func TestStringSummary(t *testing.T) {
	tun := New(Options{NMax: 30}, rng.New(23))
	tun.Run(context.Background(), newRosen())
	s := tun.String()
	for _, want := range []string{"SA", "GA", "PS", "RAND", "pulls"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func TestCustomEnsemble(t *testing.T) {
	p := newRosen()
	tun := New(Options{NMax: 40}, rng.New(29),
		search.NewRandomTechnique(p.Space(), rng.New(30)))
	res, pulls := tun.Run(context.Background(), p)
	if len(pulls) != 1 || len(res.Records) != 40 {
		t.Fatalf("custom single-technique ensemble wrong: %v, %d records", pulls, len(res.Records))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.NMax != 100 || o.ExplorationC != 1.4 || o.Window != 30 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

// line is a five-configuration problem: a budget above five can only be
// spent on duplicates once every configuration has been evaluated.
type line struct{ spc *space.Space }

func newLine() *line { return &line{spc: space.New(space.NewIntRange("x", 0, 4))} }

func (p *line) Name() string        { return "line" }
func (p *line) Space() *space.Space { return p.spc }
func (p *line) Evaluate(c space.Config) (float64, float64) {
	run := 1 + float64(c[0])
	return run, run
}

// TestExhaustedSpaceEnds: a budget larger than the space ends once the
// space is evaluated and the duplicate cap is reached, not at the
// context's deadline. (The random arm never runs out of proposals, so an
// ensemble loop without a duplicate cap spins until it is cancelled.)
func TestExhaustedSpaceEnds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, _ := New(Options{NMax: 10}, rng.New(31)).Run(ctx, newLine())
	if err := ctx.Err(); err != nil {
		t.Fatalf("ensemble ran until the context ended: %v", err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("%d records on a five-configuration space", len(res.Records))
	}
}

// TestEnsembleTelemetry: an ensemble run is traced like any search: one
// search-start, one eval event per record (in record order), one
// cache-hit per duplicate proposal it served without spending budget,
// and one search-finish; the metrics sink counts every evaluation.
func TestEnsembleTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    search.Problem
		nmax int
		// techniques builds a custom ensemble (nil: the default one).
		techniques func(spc *space.Space) []search.Technique
		// dups is the duplicates served, from the result and the pulls.
		dups func(res *search.Result, pulls map[string]int) int
	}{
		{
			// No arm of this ensemble ever runs out of proposals, so
			// every pull is one proposal, evaluated or served as a
			// duplicate.
			name: "rosen", p: newRosen(), nmax: 60,
			techniques: func(spc *space.Space) []search.Technique {
				return []search.Technique{
					search.NewAnneal(spc, rng.New(41), 0.95),
					search.NewGenetic(spc, rng.New(42), 16, 0.15),
					search.NewRandomTechnique(spc, rng.New(43)),
				}
			},
			dups: func(res *search.Result, pulls map[string]int) int {
				total := 0
				for _, n := range pulls {
					total += n
				}
				return total - len(res.Records)
			},
		},
		{
			// Once the five configurations are evaluated, the run ends at
			// Drive's cap of 50 × nmax duplicates.
			name: "line", p: newLine(), nmax: 10,
			dups: func(*search.Result, map[string]int) int { return 50 * 10 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &obs.MemorySink{}
			reg := obs.NewRegistry()
			// The deadline only bounds a run that would never end.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ctx = obs.WithTracer(ctx, obs.New(obs.Multi(mem, obs.NewMetricsSink(reg))))
			var techniques []search.Technique
			if tc.techniques != nil {
				techniques = tc.techniques(tc.p.Space())
			}
			res, pulls := New(Options{NMax: tc.nmax}, rng.New(37), techniques...).Run(ctx, tc.p)

			starts, fins := mem.ByKind(obs.KindSearchStart), mem.ByKind(obs.KindSearchFinish)
			if len(starts) != 1 || starts[0].Algo != "OpenTuner" || starts[0].Problem != tc.p.Name() {
				t.Fatalf("search-start events: %+v", starts)
			}
			if len(fins) != 1 || fins[0].N != len(res.Records) {
				t.Fatalf("search-finish events: %+v for %d records", fins, len(res.Records))
			}
			evals := mem.ByKind(obs.KindEval)
			if len(evals) != len(res.Records) {
				t.Fatalf("%d eval events for %d records", len(evals), len(res.Records))
			}
			for i, e := range evals {
				if rec := res.Records[i]; e.Seq != i || e.Value != rec.RunTime || e.Config != obs.ConfigString(rec.Config) {
					t.Fatalf("eval event %d = %+v does not match record %+v", i, e, rec)
				}
			}
			hits, want := len(mem.ByKind(obs.KindCacheHit)), tc.dups(res, pulls)
			if hits != want || hits == 0 {
				t.Fatalf("%d cache-hit events, %d duplicates served", hits, want)
			}
			if n := reg.Counter(obs.MetricEvals).Value(); n != int64(len(res.Records)) {
				t.Fatalf("%s = %d, %d records", obs.MetricEvals, n, len(res.Records))
			}
			if n := reg.Counter(obs.MetricCacheHits).Value(); n != int64(hits) {
				t.Fatalf("%s = %d, %d cache-hit events", obs.MetricCacheHits, n, hits)
			}
		})
	}
}
