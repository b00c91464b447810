package autotune

// One benchmark per table and figure of the paper (the regeneration
// harness required by DESIGN.md's per-experiment index), plus ablation
// benchmarks for the design choices of DESIGN.md section 5.
//
// The figure/table benchmarks run the corresponding experiment at a
// reduced but meaningful scale and report the reproduced headline metric
// through b.ReportMetric, so `go test -bench=.` both times the harness
// and re-derives the paper's numbers. Full-scale runs:
//
//	go run ./cmd/experiments -exp all

import (
	"context"
	"runtime"

	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/forest"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
)

// benchConfig is the reduced scale used by the per-figure benchmarks.
func benchConfig(seed uint64) experiments.Config {
	return experiments.Config{
		Seed: seed, NMax: 50, PoolSize: 2000, DeltaPct: 20, Trees: 50,
		CorrelationSamples: 100,
	}
}

func runExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Run(context.Background(), id, benchConfig(2016))
		if err != nil {
			b.Fatal(err)
		}
	}
	for key, unit := range metrics {
		if v, ok := rep.Values[key]; ok {
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	runExperiment(b, "fig1", map[string]string{
		"pearson": "pearson", "spearman": "spearman",
	})
}

func BenchmarkFigure2(b *testing.B) {
	runExperiment(b, "fig2", map[string]string{
		"leaves": "leaves", "depth": "depth",
	})
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", nil) }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", nil) }

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "table3", map[string]string{
		"MM/size": "MM-configs", "LU/size": "LU-configs",
	})
}

func BenchmarkFigure3(b *testing.B) {
	runExperiment(b, "fig3", map[string]string{
		"LU/RSb/search": "LU-RSb-srh", "LU/spearman": "LU-spearman",
		"HPL/spearman": "HPL-spearman",
	})
}

func BenchmarkFigure4(b *testing.B) {
	runExperiment(b, "fig4", map[string]string{
		"LU/RSb/search": "LU-RSb-srh", "LU/spearman": "LU-spearman",
	})
}

func BenchmarkFigure5(b *testing.B) {
	runExperiment(b, "fig5", map[string]string{
		"LU/RSb/search": "LU-RSb-srh", "MM/RSb/perf": "MM-RSb-prf",
	})
}

func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "table4", map[string]string{
		"LU/Westmere->Sandybridge/search": "LU-W-SB-srh",
		"LU/Sandybridge->X-Gene/perf":     "LU-SB-XG-prf",
	})
}

func BenchmarkTable5(b *testing.B) {
	runExperiment(b, "table5", map[string]string{
		"LU/Sandybridge->XeonPhi/search": "LU-SB-Phi-srh",
		"MM/Sandybridge->XeonPhi/perf":   "MM-SB-Phi-prf",
	})
}

func BenchmarkExtInputSize(b *testing.B) {
	runExperiment(b, "ext-inputsize", map[string]string{
		"N1000/spearman": "crosssize-spearman",
	})
}

func BenchmarkExtAlgos(b *testing.B)      { runExperiment(b, "ext-algos", nil) }
func BenchmarkExtSurrogates(b *testing.B) { runExperiment(b, "ext-surrogates", nil) }

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md section 5): each reports the RSb
// search-time speedup achieved under the varied design choice on the
// canonical LU Westmere -> Sandybridge transfer.

func transferPieces(b *testing.B) (src, tgt search.Problem) {
	b.Helper()
	lu, err := kernels.ByName("LU")
	if err != nil {
		b.Fatal(err)
	}
	src = kernels.NewProblem(lu, sim.Target{Machine: machine.Westmere, Compiler: machine.GNU, Threads: 1})
	tgt = kernels.NewProblem(lu, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})
	return src, tgt
}

func benchTransfer(b *testing.B, opts core.Options) {
	b.Helper()
	src, tgt := transferPieces(b)
	var out *core.Outcome
	var err error
	for i := 0; i < b.N; i++ {
		out, err = core.Run(context.Background(), src, tgt, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(out.Speedups["RSb"].SearchTime, "RSb-srh")
	b.ReportMetric(out.Speedups["RSb"].Performance, "RSb-prf")
}

func ablationOpts() core.Options {
	return core.Options{NMax: 50, PoolSize: 2000, DeltaPct: 20,
		Forest: forest.Params{Trees: 50}, Seed: 2016}
}

// BenchmarkAblationForestTrees varies the surrogate ensemble size.
func BenchmarkAblationForestTrees(b *testing.B) {
	for _, trees := range []int{5, 25, 100, 250} {
		b.Run(benchName("trees", trees), func(b *testing.B) {
			opts := ablationOpts()
			opts.Forest.Trees = trees
			benchTransfer(b, opts)
		})
	}
}

// BenchmarkAblationDelta varies RSp's pruning cutoff (the paper fixes
// delta = 20%); reported through the RSp metrics.
func BenchmarkAblationDelta(b *testing.B) {
	src, tgt := transferPieces(b)
	for _, delta := range []float64{5, 20, 50, 80} {
		b.Run(benchName("delta", int(delta)), func(b *testing.B) {
			opts := ablationOpts()
			opts.DeltaPct = delta
			var out *core.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				out, err = core.Run(context.Background(), src, tgt, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(out.Speedups["RSp"].SearchTime, "RSp-srh")
			b.ReportMetric(out.Speedups["RSp"].Performance, "RSp-prf")
		})
	}
}

// BenchmarkAblationPoolSize varies the configuration pool N (paper: 10000).
func BenchmarkAblationPoolSize(b *testing.B) {
	for _, pool := range []int{200, 2000, 10000} {
		b.Run(benchName("pool", pool), func(b *testing.B) {
			opts := ablationOpts()
			opts.PoolSize = pool
			benchTransfer(b, opts)
		})
	}
}

// BenchmarkAblationTrainSize varies |Ta| while the target budget stays
// fixed at 50 evaluations.
func BenchmarkAblationTrainSize(b *testing.B) {
	src, tgt := transferPieces(b)
	for _, n := range []int{10, 25, 50, 150} {
		b.Run(benchName("ta", n), func(b *testing.B) {
			var speedup core.Speedups
			for i := 0; i < b.N; i++ {
				seed := uint64(2016)
				_, ta := core.Collect(context.Background(), src, n, rng.NewNamed(seed, "collect"))
				sur, err := core.FitSurrogate(ta, src.Space(), src.Name(),
					forest.Params{Trees: 50}, rng.NewNamed(seed, "forest"))
				if err != nil {
					b.Fatal(err)
				}
				rs := search.RS(context.Background(), tgt, 50, rng.NewNamed(seed, "rs"))
				rsb := search.RSb(context.Background(), tgt, sur, search.RSbOptions{NMax: 50, PoolSize: 2000},
					rng.NewNamed(seed, "pool"))
				speedup = core.ComputeSpeedups(rs, rsb)
			}
			b.ReportMetric(speedup.SearchTime, "RSb-srh")
		})
	}
}

// BenchmarkAblationSurrogate compares the surrogate families of
// internal/core/baselines.go.
func BenchmarkAblationSurrogate(b *testing.B) {
	src, tgt := transferPieces(b)
	for _, fam := range []core.SurrogateFamily{
		core.FamilyForest, core.FamilyTree, core.FamilyKNN, core.FamilyLinear,
	} {
		b.Run(string(fam), func(b *testing.B) {
			var speedup core.Speedups
			for i := 0; i < b.N; i++ {
				seed := uint64(2016)
				_, ta := core.Collect(context.Background(), src, 50, rng.NewNamed(seed, "collect"))
				m, err := core.FitFamily(fam, ta, src.Space(), seed)
				if err != nil {
					b.Fatal(err)
				}
				rs := search.RS(context.Background(), tgt, 50, rng.NewNamed(seed, "rs"))
				rsb := search.RSb(context.Background(), tgt, m, search.RSbOptions{NMax: 50, PoolSize: 2000},
					rng.NewNamed(seed, "pool"))
				speedup = core.ComputeSpeedups(rs, rsb)
			}
			b.ReportMetric(speedup.SearchTime, "RSb-srh")
			b.ReportMetric(speedup.Performance, "RSb-prf")
		})
	}
}

// evalTargets are the BenchmarkEvaluate targets: every kernel on the
// serial gcc Sandybridge target and on the 60-thread icc Xeon Phi target
// with OpenMP forced on (where the compiler's automatic variant competes
// with every manual one).
var evalTargets = []struct {
	name   string
	target sim.Target
	omp    bool
}{
	{"Sandybridge-gnu", sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1}, false},
	{"XeonPhi-intel-t60omp", sim.Target{Machine: machine.XeonPhi, Compiler: machine.Intel, Threads: 60}, true},
}

// evalCase is one BenchmarkEvaluate sub-benchmark: a problem and the
// pre-drawn configurations it cycles over.
type evalCase struct {
	name    string
	problem *kernels.Problem
	configs []space.Config
}

// evalCases returns the BenchmarkEvaluate sub-benchmarks. Each cycles
// over 16 configurations drawn from its own named stream, except
// LU/Sandybridge-gnu, which keeps the single rng.New(1) configuration the
// benchmark has always timed, so its numbers stay comparable.
func evalCases(tb testing.TB) []evalCase {
	var out []evalCase
	for _, k := range kernels.All() {
		for _, t := range evalTargets {
			p := kernels.NewProblem(k, t.target)
			p.ForceOMP = t.omp
			name := k.Name + "/" + t.name
			var cs []space.Config
			if name == "LU/Sandybridge-gnu" {
				cs = []space.Config{k.Space().Random(rng.New(1))}
			} else {
				r := rng.NewNamed(1, name)
				for i := 0; i < 16; i++ {
					cs = append(cs, k.Space().Random(r))
				}
			}
			out = append(out, evalCase{name, p, cs})
		}
	}
	if len(out) == 0 {
		tb.Fatal("no evaluation cases")
	}
	return out
}

// BenchmarkEvaluate times one simulator evaluation (the per-configuration
// cost every search pays), per kernel and target.
func BenchmarkEvaluate(b *testing.B) {
	for _, c := range evalCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.problem.Evaluate(c.configs[i%len(c.configs)])
			}
		})
	}
}

// maxEvaluateAllocs bounds the heap allocations of one kernel evaluation.
const maxEvaluateAllocs = 63

// TestEvaluateAllocs holds every BenchmarkEvaluate target to
// maxEvaluateAllocs allocations per kernels.Problem.Evaluate call.
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, c := range evalCases(t) {
		for _, cfg := range c.configs {
			c.problem.Evaluate(cfg) // first use computes the per-target state
		}
		i := 0
		allocs := testing.AllocsPerRun(len(c.configs)*4, func() {
			c.problem.Evaluate(c.configs[i%len(c.configs)])
			i++
		})
		if allocs > maxEvaluateAllocs {
			t.Errorf("%s: %.1f allocs per evaluation, want <= %d", c.name, allocs, maxEvaluateAllocs)
		}
	}
}

func benchName(tag string, v int) string {
	return tag + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// Parallel execution engine benchmark: the same cell-grid experiment run
// serially (workers=1) and with one worker per CPU. Every cell derives
// its randomness from its own seed, so both runs produce bit-identical
// reports (asserted by TestParallelMatchesSerial); the delta measured
// here is pure wall time. `make bench-parallel` runs this pair.

func BenchmarkExperimentCell(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchConfig(2016)
			cfg.Workers = c.workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(context.Background(), "table4", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Telemetry overhead benchmarks. obs.New collapses the no-op sink to the
// nil (disabled) tracer, so running under a no-op sink must cost the
// same as running with no tracer at all — these pairs make that claim
// measurable on the two instrumented hot paths: the evaluation loop and
// the model-guided scoring loop. A live sink pair is included for scale.

// telemetryCases are the contexts the overhead benchmarks compare.
func telemetryCases() []struct {
	name string
	ctx  context.Context
} {
	return []struct {
		name string
		ctx  context.Context
	}{
		{"no-tracer", context.Background()},
		{"nop-sink", obs.WithTracer(context.Background(), obs.New(obs.NopSink{}))},
		{"memory-sink", obs.WithTracer(context.Background(), obs.New(&obs.MemorySink{}))},
	}
}

// BenchmarkTelemetryEvalLoop times the plain RS evaluation loop under
// each tracing configuration.
func BenchmarkTelemetryEvalLoop(b *testing.B) {
	lu, err := kernels.ByName("LU")
	if err != nil {
		b.Fatal(err)
	}
	p := kernels.NewProblem(lu, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})
	for _, c := range telemetryCases() {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search.RS(c.ctx, p, 50, rng.New(1))
			}
		})
	}
}

// BenchmarkTelemetryRSpScoring times RSp's model scoring loop (the
// per-candidate scorer, wrapped in a counting stopwatch only when
// tracing is enabled) under each tracing configuration.
func BenchmarkTelemetryRSpScoring(b *testing.B) {
	src, tgt := transferPieces(b)
	res := search.RS(context.Background(), src, 60, rng.New(7))
	sur, err := core.FitSurrogate(search.DatasetFrom(res), src.Space(), src.Name(),
		forest.Params{Trees: 30}, rng.New(8))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range telemetryCases() {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search.RSp(c.ctx, tgt, sur,
					search.RSpOptions{NMax: 20, PoolSize: 2000},
					rng.New(3), rng.New(4))
			}
		})
	}
}

// ---------------------------------------------------------------------------
// End-to-end model-guided search benchmarks: one RSp or RSb search
// (pool scoring plus 50 simulator evaluations) run inline. The
// sub-benchmark keeps its "inline" name so the committed BENCH_*.json
// ledger entries stay comparable. `make bench-json` collects these
// plus BenchmarkRemoteDispatch and BenchmarkForestPredict.

// benchSurrogate fits a small transfer surrogate once: T_a collected by
// RS on Sandybridge, forest fitted on it, searches run on Westmere.
func benchSurrogate(b *testing.B) (search.Problem, *core.Surrogate) {
	b.Helper()
	lu, err := kernels.ByName("LU")
	if err != nil {
		b.Fatal(err)
	}
	src := kernels.NewProblem(lu, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})
	tgt := kernels.NewProblem(lu, sim.Target{Machine: machine.Westmere, Compiler: machine.GNU, Threads: 1})
	_, ta := core.Collect(context.Background(), src, 60, rng.NewNamed(2016, "crn-stream"))
	sur, err := core.FitSurrogate(ta, src.Space(), src.Name(), forest.Params{Trees: 50}, rng.NewNamed(2016, "forest"))
	if err != nil {
		b.Fatal(err)
	}
	return tgt, sur
}

func BenchmarkEndToEndRSp(b *testing.B) {
	tgt, sur := benchSurrogate(b)
	b.Run("inline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.RSp(context.Background(), tgt, sur,
				search.RSpOptions{NMax: 50, PoolSize: 2000, DeltaPct: 20},
				rng.NewNamed(2016, "crn-stream"), rng.NewNamed(2016, "pool"))
		}
	})
}

// walkModel hides a surrogate's config scorer, so search.ScorePool
// takes its fallback: encode the pool, then walk the forest.
type walkModel struct{ search.BatchModel }

// BenchmarkPoolScoring isolates the prelude RSp and RSb pay before their
// first evaluation: stream the paper-scale pool (N = 10 000) through
// search.ScorePool, keeping RSp's cutoff and RSb's 100 best, on LU and
// on RT (247 parameters). "compiled" is what core.Run does, scoring
// level indices through the surrogate's compiled forest; "walk" is the
// encode-and-walk fallback other models take, kept beside it so one run
// shows what the compiled path saves. The surrogates have the transfer
// experiment's 100 trees.
func BenchmarkPoolScoring(b *testing.B) {
	lu, err := kernels.ByName("LU")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  search.Problem
	}{
		{"LU", kernels.NewProblem(lu, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})},
		{"RT", miniapps.NewProblem(miniapps.RT(), machine.Sandybridge)},
	} {
		_, ta := core.Collect(context.Background(), tc.src, 100, rng.NewNamed(2016, "crn-stream"))
		sur, err := core.FitSurrogate(ta, tc.src.Space(), tc.src.Name(), forest.Params{}, rng.NewNamed(2016, "forest"))
		if err != nil {
			b.Fatal(err)
		}
		spc := tc.src.Space()
		for _, m := range []struct {
			name  string
			model search.Model
		}{{"compiled", sur}, {"walk", walkModel{sur}}} {
			b.Run(tc.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					search.ScorePool(spc, m.model, 10000, 100, 20, rng.NewNamed(2016, "pool"))
				}
			})
		}
	}
}

// BenchmarkSamplePool draws the paper-scale pool (N = 10 000) on a kernel
// space (LU's transformation parameters) and on RT's 247 flags and
// parameters, where each draw's Config.Key is longest.
func BenchmarkSamplePool(b *testing.B) {
	lu, err := kernels.ByName("LU")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spc  *space.Space
	}{
		{"LU", lu.Space()},
		{"RT", miniapps.RT().Space()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.spc.SamplePool(10000, rng.NewNamed(2016, "pool"))
			}
		})
	}
}

// BenchmarkSurrogateFit fits M_a as core.Run does: 100 trees on T_a,
// the valid rows of a 100-evaluation RS run on the source, encoded; on
// LU and on RT (247 features). Each op also compiles the forest against
// the space, the rest of what NewSurrogate does, and reports that part
// alone as compile-ms/op.
func BenchmarkSurrogateFit(b *testing.B) {
	lu, err := kernels.ByName("LU")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  search.Problem
	}{
		{"LU", kernels.NewProblem(lu, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})},
		{"RT", miniapps.NewProblem(miniapps.RT(), machine.Sandybridge)},
	} {
		spc := tc.src.Space()
		_, ta := core.Collect(context.Background(), tc.src, 100, rng.NewNamed(2016, "crn-stream"))
		X, y := ta.Valid().Encode(spc)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			compile := 0.0
			for i := 0; i < b.N; i++ {
				f, err := forest.Fit(X, y, forest.Params{}, rng.NewNamed(2016, "forest"))
				if err != nil {
					b.Fatal(err)
				}
				sw := obs.StartTimer()
				if _, err := f.Compile(spc); err != nil {
					b.Fatal(err)
				}
				compile += sw.Elapsed().Seconds()
			}
			b.ReportMetric(compile*1e3/float64(b.N), "compile-ms/op")
		})
	}
}

func BenchmarkEndToEndRSb(b *testing.B) {
	tgt, sur := benchSurrogate(b)
	b.Run("inline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.RSb(context.Background(), tgt, sur,
				search.RSbOptions{NMax: 50, PoolSize: 2000},
				rng.NewNamed(2016, "pool"))
		}
	})
}

// BenchmarkTransferRun is one paper-scale transfer experiment, LU from
// Sandybridge to Westmere: the source RS, the forest fit, the pool drawn
// and scored once, and the five target runs (budget 100, N = 10 000,
// 100 trees).
func BenchmarkTransferRun(b *testing.B) {
	tgt, src := transferPieces(b)
	opts := core.Options{NMax: 100, PoolSize: 10000, DeltaPct: 20, Seed: 2016}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), src, tgt, opts); err != nil {
			b.Fatal(err)
		}
	}
}
