package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/opentuner"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/transform"
)

// The input domain every workload draws from: the paper's six problems
// on the four machines the GNU compiler targets in Table II.
var (
	problemNames = []string{"MM", "ATAX", "COR", "LU", "HPL", "RT"}
	gnuMachines  = []string{"Westmere", "Sandybridge", "Power7", "X-Gene"}
	tuneAlgos    = []string{"rs", "sa", "ga", "ps", "ensemble"}
)

// buildProblem constructs one bare problem through the public
// constructors, exactly as cmd/transfer does.
func buildProblem(name, machineName string) (search.Problem, error) {
	m, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	switch name {
	case "HPL":
		return miniapps.NewProblem(miniapps.HPL(), m), nil
	case "RT":
		return miniapps.NewProblem(miniapps.RT(), m), nil
	}
	k, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	return kernels.NewProblem(k, sim.Target{Machine: m, Compiler: machine.GNU, Threads: 1}), nil
}

// problemSet holds every (problem, machine) pair a workload can draw,
// keyed "NAME@Machine". Problems are pure in (problem, config), so ops
// share them.
type problemSet map[string]search.Problem

func (ps problemSet) get(name, machineName string) search.Problem { return ps[name+"@"+machineName] }

func buildProblems() (problemSet, error) {
	ps := problemSet{}
	for _, name := range problemNames {
		for _, m := range gnuMachines {
			p, err := buildProblem(name, m)
			if err != nil {
				return nil, err
			}
			ps[name+"@"+m] = p
		}
	}
	return ps, nil
}

// setupProblems builds the problem set reps times and returns the last
// set with the median build time: set-up time is the in-process
// workloads' setup_s.
func setupProblems(reps int) (problemSet, float64, error) {
	var ps problemSet
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		ps, err = buildProblems()
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ps, stats.Median(times), nil
}

// transferOp is one transfer run's input.
type transferOp struct {
	Problem, Source, Target string
	Seed                    uint64
}

// deal returns item i of a stream that deals 0..n-1 in rounds, each
// round a fresh seeded permutation: any prefix of the stream holds every
// item equally often, give or take one. Workloads deal their inputs
// rather than draw them independently so that runs of different seeds
// carry the same mix of cheap and expensive ops.
func deal(seed uint64, stream string, i, n int) int {
	return rng.NewNamed(seed, stream+"-"+strconv.Itoa(i/n)).Perm(n)[i%n]
}

// transferOpFor deals op i of a transfer run: problems in rounds of
// six, and to each problem the twelve ordered machine pairs in rounds
// of their own.
func transferOpFor(seed uint64, i int) transferOp {
	n := len(problemNames)
	name := problemNames[deal(seed, "transfer-problem", i, n)]
	pair := deal(seed, "transfer-pair-"+name, i/n, len(gnuMachines)*(len(gnuMachines)-1))
	a, b := pair/(len(gnuMachines)-1), pair%(len(gnuMachines)-1)
	if b >= a {
		b++
	}
	r := rng.NewNamed(seed, "transfer-op-"+strconv.Itoa(i))
	return transferOp{Problem: name, Source: gnuMachines[a], Target: gnuMachines[b], Seed: r.Uint64()}
}

// tuneOp is one model-free search's input.
type tuneOp struct {
	Problem, Machine, Algo string
	Seed                   uint64
}

// searchPairs is how many (problem, algorithm) pairs the tune and
// service workloads deal: 6 × 5 = 30.
var searchPairs = len(problemNames) * len(tuneAlgos)

// searchKind deals item i of a stream over the 120 (problem, algorithm,
// machine) kinds: the pairs in rounds of searchPairs, and to each pair
// the four machines in rounds of their own. Every whole round of pairs
// holds each pair once, and every 120 items hold each kind once. It
// returns the kind's index and its parts.
func searchKind(seed uint64, stream string, i int) (k int, problem, algo, machineName string) {
	pair := deal(seed, stream+"-pair", i, searchPairs)
	m := deal(seed, stream+"-machine-"+strconv.Itoa(pair), i/searchPairs, len(gnuMachines))
	return pair*len(gnuMachines) + m, problemNames[pair/len(tuneAlgos)], tuneAlgos[pair%len(tuneAlgos)], gnuMachines[m]
}

// tuneOpFor deals op i of a tune run.
func tuneOpFor(seed uint64, i int) tuneOp {
	_, problem, algo, m := searchKind(seed, "tune", i)
	r := rng.NewNamed(seed, "tune-op-"+strconv.Itoa(i))
	return tuneOp{Problem: problem, Algo: algo, Machine: m, Seed: r.Uint64()}
}

// runSearch runs one model-free search set up exactly as cmd/autotune
// and the daemon set it up, so it draws the same random streams.
func runSearch(ctx context.Context, p search.Problem, algo string, budget int, seed uint64) *search.Result {
	r := rng.New(seed)
	switch algo {
	case "sa":
		return search.Drive(ctx, p, search.NewAnneal(p.Space(), r, 0.95), budget)
	case "ga":
		return search.Drive(ctx, p, search.NewGenetic(p.Space(), r, 16, 0.15), budget)
	case "ps":
		return search.Drive(ctx, p, search.NewPattern(p.Space(), r, 4), budget)
	case "ensemble":
		res, _ := opentuner.New(opentuner.Options{NMax: budget}, r).Run(ctx, p)
		return res
	}
	return search.RS(ctx, p, budget, r)
}

func transferOptions(p params, seed uint64) core.Options {
	return core.Options{
		NMax: p.NMax, PoolSize: p.Pool, DeltaPct: 20,
		Forest: forest.Params{Trees: p.Trees, Workers: runtime.NumCPU()},
		Seed:   seed,
	}
}

// tracedTransfer runs the transfer experiment through the public
// functions core.Run composes, with each phase in its own span, the
// problems wrapped in timedProblem and the surrogate in timedModel. Its
// outcome must equal core.Run's bit for bit.
func tracedTransfer(ctx context.Context, t *tracer, trace int, src, tgt search.Problem, opt core.Options) (*core.Outcome, error) {
	root := t.begin(trace, 0, "transfer")
	t.cur = root
	defer t.end(root, nil)
	tsrc := timedProblem{Problem: src, t: t, trace: trace}
	ttgt := timedProblem{Problem: tgt, t: t, trace: trace}
	out := &core.Outcome{Source: src.Name(), Target: tgt.Name(), Speedups: map[string]core.Speedups{}}

	done := t.phase(trace, root, "search.rs")
	out.SourceRS, out.Ta = core.Collect(ctx, tsrc, opt.NMax, rng.NewNamed(opt.Seed, "crn-stream"))
	done(resultCounts(out.SourceRS))

	done = t.phase(trace, root, "forest.fit")
	sur, err := core.FitSurrogate(out.Ta, src.Space(), src.Name(), opt.Forest, rng.NewNamed(opt.Seed, "forest"))
	done(map[string]int{"rows": len(out.Ta)})
	if err != nil {
		return nil, err
	}
	model := timedModel{m: sur, t: t, trace: trace}

	srcSeq := make([]space.Config, len(out.SourceRS.Records))
	for i, rec := range out.SourceRS.Records {
		srcSeq[i] = rec.Config
	}
	done = t.phase(trace, root, "search.replay")
	out.RS = search.Replay(ctx, ttgt, srcSeq, "RS")
	done(resultCounts(out.RS))

	done = t.phase(trace, root, "search.rsp")
	out.RSp = search.RSp(ctx, ttgt, model,
		search.RSpOptions{NMax: opt.NMax, PoolSize: opt.PoolSize, DeltaPct: opt.DeltaPct},
		rng.NewNamed(opt.Seed, "crn-stream"), rng.NewNamed(opt.Seed, "pool"))
	done(resultCounts(out.RSp))

	done = t.phase(trace, root, "search.rsb")
	out.RSb = search.RSb(ctx, ttgt, model, search.RSbOptions{NMax: opt.NMax, PoolSize: opt.PoolSize},
		rng.NewNamed(opt.Seed, "pool"))
	done(resultCounts(out.RSb))

	done = t.phase(trace, root, "search.rspf")
	out.RSpf = search.RSpf(ctx, ttgt, out.Ta, opt.DeltaPct)
	done(resultCounts(out.RSpf))

	done = t.phase(trace, root, "search.rsbf")
	out.RSbf = search.RSbf(ctx, ttgt, out.Ta)
	done(resultCounts(out.RSbf))

	for name, res := range map[string]*search.Result{"RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf} {
		out.Speedups[name] = core.ComputeSpeedups(out.RS, res)
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
	if p, err := stats.Pearson(out.SourceRuns, out.TargetRuns); err == nil {
		out.Pearson = p
	}
	if s, err := stats.Spearman(out.SourceRuns, out.TargetRuns); err == nil {
		out.Spearman = s
	}
	if s, err := stats.Spearman(preds, out.TargetRuns); err == nil {
		out.SurrogateSpearman = s
	}
	return out, nil
}

func resultCounts(r *search.Result) map[string]int {
	return map[string]int{"records": len(r.Records), "skipped": r.Skipped}
}

// checkSearch verifies what holds for any search output, whatever the
// seed: the budget is respected, no configuration is evaluated twice,
// the search clock is the running sum of the costs, and the best run
// time is what a fresh evaluation of that configuration returns.
func checkSearch(p search.Problem, r *search.Result, budget int, exact bool) error {
	n := len(r.Records)
	if n == 0 || n > budget || (exact && n != budget) {
		return fmt.Errorf("%s on %s: %d records for budget %d", r.Algorithm, r.Problem, n, budget)
	}
	seen := make(map[string]bool, n)
	clock := 0.0
	for i, rec := range r.Records {
		key := rec.Config.Key()
		if seen[key] {
			return fmt.Errorf("%s on %s: config %s evaluated twice", r.Algorithm, r.Problem, key)
		}
		seen[key] = true
		clock += rec.Cost
		if math.Float64bits(clock) != math.Float64bits(rec.Elapsed) {
			return fmt.Errorf("%s on %s: record %d elapsed %v, running cost sum %v", r.Algorithm, r.Problem, i, rec.Elapsed, clock)
		}
	}
	best, _, ok := r.Best()
	if !ok {
		return fmt.Errorf("%s on %s: no measured record", r.Algorithm, r.Problem)
	}
	if run, _ := p.Evaluate(best.Config); math.Float64bits(run) != math.Float64bits(best.RunTime) {
		return fmt.Errorf("%s on %s: best run time %v, re-evaluated %v", r.Algorithm, r.Problem, best.RunTime, run)
	}
	return nil
}

// checkOutcome verifies a transfer outcome: every run passes
// checkSearch, RS replays the source's configurations in order (common
// random numbers), and the speedups follow from the runs.
func checkOutcome(out *core.Outcome, src, tgt search.Problem, nmax int) []string {
	var bad []string
	if out.Degraded {
		bad = append(bad, fmt.Sprintf("%s -> %s: degraded: %v", out.Source, out.Target, out.Warnings))
	}
	if err := checkSearch(src, out.SourceRS, nmax, true); err != nil {
		bad = append(bad, err.Error())
	}
	for _, r := range []*search.Result{out.RS, out.RSp, out.RSb, out.RSpf, out.RSbf} {
		if err := checkSearch(tgt, r, nmax, r == out.RS || r == out.RSb); err != nil {
			bad = append(bad, err.Error())
		}
	}
	for i, rec := range out.RS.Records {
		if rec.Config.Key() != out.SourceRS.Records[i].Config.Key() {
			bad = append(bad, fmt.Sprintf("%s: RS replay record %d is not the source's config", out.Target, i))
			break
		}
	}
	for name, r := range map[string]*search.Result{"RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf} {
		want, got := core.ComputeSpeedups(out.RS, r), out.Speedups[name]
		if math.Float64bits(want.Performance) != math.Float64bits(got.Performance) ||
			math.Float64bits(want.SearchTime) != math.Float64bits(got.SearchTime) || want.Success != got.Success {
			bad = append(bad, fmt.Sprintf("%s: %s speedups do not follow from its run", out.Target, name))
		}
	}
	sort.Strings(bad)
	return bad
}

func outcomeRecords(out *core.Outcome) int {
	n := 0
	for _, r := range []*search.Result{out.SourceRS, out.RS, out.RSp, out.RSb, out.RSpf, out.RSbf} {
		n += len(r.Records)
	}
	return n
}

// shadowTransform times Kernel.SpecsFor plus transform.Apply on every
// nest for each configuration, outside any op: the transform layer's
// cost per evaluated configuration. Mini-apps have no transform layer.
func shadowTransform(p search.Problem, results []*search.Result, acc *shadowAcc) {
	kp, ok := p.(*kernels.Problem)
	if !ok {
		return
	}
	for _, r := range results {
		for _, rec := range r.Records {
			t0 := time.Now()
			for ni, spec := range kp.Kernel.SpecsFor(rec.Config) {
				// The simulator applies a compiler-adjusted spec, so a raw
				// spec may be rejected; the call is timed either way.
				_, _ = transform.Apply(kp.Kernel.Nests[ni], spec)
			}
			acc.add("transform.apply", time.Since(t0))
		}
	}
}

// shadowPool times drawing and encoding one op's configuration pool,
// as RSp and RSb each do once.
func shadowPool(p search.Problem, size int, seed uint64, acc *shadowAcc) {
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		spc := p.Space()
		for _, c := range spc.SamplePool(size, rng.NewNamed(seed, "pool")) {
			spc.Encode(c)
		}
		acc.add("space.pool", time.Since(t0))
	}
}

// shadowAcc accumulates shadow-call timings by layer.
type shadowAcc struct {
	calls map[string]int
	total map[string]time.Duration
}

func newShadowAcc() *shadowAcc {
	return &shadowAcc{calls: map[string]int{}, total: map[string]time.Duration{}}
}

func (a *shadowAcc) add(name string, d time.Duration) {
	a.calls[name]++
	a.total[name] += d
}

// meanUS is the mean shadow-call time in microseconds (0 when none ran).
func (a *shadowAcc) meanUS(name string) float64 {
	if a.calls[name] == 0 {
		return 0
	}
	return float64(a.total[name]) / 1e3 / float64(a.calls[name])
}

// inprocRun is what the op loop of an in-process workload collects.
type inprocRun struct {
	latencies []float64 // untraced op seconds
	traced    []float64 // traced op seconds (trace mode)
	evals     int
	wall      float64
	rssMB     float64
}

// opLoop runs op(i) for i = 0, 1, ... until ctx ends. With fixed > 0 it
// runs exactly fixed ops. Otherwise it runs until the run's time is
// spent and it has run at least minOps ops, and then on to the end of
// the round of round ops under way: the inputs are dealt in rounds, so
// every run then holds the same mix.
func opLoop(ctx context.Context, seconds float64, fixed, minOps, round int, op func(i int)) (ops int, wall float64) {
	start := time.Now()
	for i := 0; ; i++ {
		done := ctx.Err() != nil
		if fixed > 0 {
			done = done || i >= fixed
		} else {
			done = done || (i > 0 && i%round == 0 && i >= minOps && time.Since(start).Seconds() >= seconds)
		}
		if done {
			return i, time.Since(start).Seconds()
		}
		op(i)
	}
}

// minOps is the fewest ops an in-process run goes on to. A traced run
// reports no latency percentiles, and each of its ops runs twice, so it
// stops when its time is spent.
func (c config) minOps() int {
	if c.trace {
		return 0
	}
	return c.p.MinOps
}

func runTransfer(ctx context.Context, cfg config) (*outcome, error) {
	ps, setup, err := setupProblems(cfg.p.SetupReps)
	if err != nil {
		return nil, err
	}
	res := newOutcome()
	res.metrics["setup_s"] = setup
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	shadow := newShadowAcc()

	// Warm-up: one op outside the timed loop, so lazy set-up is not
	// charged to the first timed op.
	warm := transferOpFor(cfg.seed, 0)
	if _, err := core.Run(ctx, ps.get(warm.Problem, warm.Source), ps.get(warm.Problem, warm.Target), transferOptions(cfg.p, warm.Seed)); err != nil {
		return nil, err
	}

	var run inprocRun
	var ops int
	ops, run.wall = opLoop(ctx, cfg.seconds, cfg.p.FixedOps, cfg.minOps(), len(problemNames), func(i int) {
		op := transferOpFor(cfg.seed, i)
		src, tgt := ps.get(op.Problem, op.Source), ps.get(op.Problem, op.Target)
		opt := transferOptions(cfg.p, op.Seed)
		res.attempted++
		t0 := time.Now()
		out, err := core.Run(ctx, src, tgt, opt)
		d := time.Since(t0).Seconds()
		if err != nil {
			res.failed++
			res.fail("transfer op %d: %v", i, err)
			res.digests = append(res.digests, "error")
			return
		}
		run.latencies = append(run.latencies, d)
		run.evals += outcomeRecords(out)
		digest := outcomeDigest(out)
		res.digests = append(res.digests, digest)
		res.problems = append(res.problems, checkOutcome(out, src, tgt, opt.NMax)...)
		if t == nil {
			return
		}
		t1 := t.now()
		tout, err := tracedTransfer(ctx, t, i, src, tgt, opt)
		run.traced = append(run.traced, float64(t.now()-t1)/1e9)
		if err != nil {
			res.fail("traced transfer op %d: %v", i, err)
			return
		}
		if got := outcomeDigest(tout); got != digest {
			res.fail("transfer op %d: traced digest %s, untraced %s", i, got, digest)
		}
		shadowTransform(tgt, []*search.Result{out.RS, out.RSp, out.RSb, out.RSpf, out.RSbf}, shadow)
		shadowTransform(src, []*search.Result{out.SourceRS}, shadow)
		shadowPool(tgt, opt.PoolSize, opt.Seed, shadow)
	})
	run.rssMB = peakRSSMB("self")
	res.inprocMetrics(run, ops)
	if t != nil {
		res.spans = t.spans
		res.layerMetrics(t.spans, ops, shadow)
		res.metrics["trace.overhead_share"] = stats.Median(run.traced)/stats.Median(run.latencies) - 1
	}
	return res, nil
}

func runTune(ctx context.Context, cfg config) (*outcome, error) {
	ps, setup, err := setupProblems(cfg.p.SetupReps)
	if err != nil {
		return nil, err
	}
	res := newOutcome()
	res.metrics["setup_s"] = setup
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	shadow := newShadowAcc()

	warm := tuneOpFor(cfg.seed, 0)
	runSearch(ctx, ps.get(warm.Problem, warm.Machine), warm.Algo, cfg.p.TuneBudget, warm.Seed)

	var run inprocRun
	var ops int
	ops, run.wall = opLoop(ctx, cfg.seconds, cfg.p.FixedOps, cfg.minOps(), searchPairs, func(i int) {
		op := tuneOpFor(cfg.seed, i)
		p := ps.get(op.Problem, op.Machine)
		res.attempted++
		t0 := time.Now()
		r := runSearch(ctx, p, op.Algo, cfg.p.TuneBudget, op.Seed)
		run.latencies = append(run.latencies, time.Since(t0).Seconds())
		run.evals += len(r.Records)
		digest := resultDigest(r)
		res.digests = append(res.digests, digest)
		if err := checkSearch(p, r, cfg.p.TuneBudget, op.Algo == "rs"); err != nil {
			res.fail("tune op %d: %v", i, err)
		}
		if t == nil {
			return
		}
		t1 := t.now()
		root := t.begin(i, 0, "tune")
		t.cur = root
		done := t.phase(i, root, "search."+op.Algo)
		tr := runSearch(ctx, timedProblem{Problem: p, t: t, trace: i}, op.Algo, cfg.p.TuneBudget, op.Seed)
		done(resultCounts(tr))
		t.end(root, nil)
		run.traced = append(run.traced, float64(t.now()-t1)/1e9)
		if got := resultDigest(tr); got != digest {
			res.fail("tune op %d: traced digest %s, untraced %s", i, got, digest)
		}
		shadowTransform(p, []*search.Result{r}, shadow)
	})
	run.rssMB = peakRSSMB("self")
	res.inprocMetrics(run, ops)
	if t != nil {
		res.spans = t.spans
		res.layerMetrics(t.spans, ops, shadow)
		res.metrics["trace.overhead_share"] = stats.Median(run.traced)/stats.Median(run.latencies) - 1
	}
	return res, nil
}

// inprocMetrics fills the end-to-end metrics of an in-process run.
func (o *outcome) inprocMetrics(run inprocRun, ops int) {
	o.metrics["latency_p50_s"] = stats.Quantile(run.latencies, 0.5)
	o.metrics["latency_p90_s"] = stats.Quantile(run.latencies, 0.9)
	o.metrics["throughput_per_s"] = float64(ops) / run.wall
	o.metrics["evals_per_s"] = float64(run.evals) / run.wall
	o.metrics["peak_rss_mb"] = run.rssMB
}

// layerMetrics derives the in-process per-layer metrics from the spans
// (per op, except the per-call means) and the shadow timings.
func (o *outcome) layerMetrics(spans []span, ops int, shadow *shadowAcc) {
	sum := summarize(spans)
	perOp := func(v float64) float64 { return v / float64(ops) }
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }

	simSt := sum.stat("sim.evaluate")
	o.metrics["sim.evaluate.calls"] = perOp(float64(simSt.Calls))
	o.metrics["sim.evaluate.busy_s"] = perOp(sec(simSt.Total))
	if simSt.Calls > 0 {
		o.metrics["sim.evaluate.mean_us"] = float64(simSt.Total) / float64(simSt.Calls) / 1e3
	}
	o.metrics["transform.apply.mean_us"] = shadow.meanUS("transform.apply")

	pred := sum.stat("forest.predict")
	o.metrics["forest.predict.rows"] = perOp(float64(pred.Counts["rows"]))
	o.metrics["forest.predict.busy_s"] = perOp(sec(pred.Total))
	if rows := pred.Counts["rows"]; rows > 0 {
		o.metrics["forest.predict.mean_us_per_row"] = float64(pred.Total) / float64(rows) / 1e3
	}
	fit := sum.stat("forest.fit")
	o.metrics["forest.fit.calls"] = perOp(float64(fit.Calls))
	o.metrics["forest.fit.busy_s"] = perOp(sec(fit.Total))
	o.metrics["space.pool.busy_s"] = perOp(shadow.total["space.pool"].Seconds())

	var searchSelf int64
	for _, name := range sum.names() {
		st := sum.byName[name]
		if strings.HasPrefix(name, "search.") {
			searchSelf += st.Self
			o.metrics[name+".self_s"] = sec(st.Self) / float64(st.Calls)
		}
	}
	o.metrics["search.self_s"] = perOp(sec(searchSelf))
	if rsp := sum.stat("search.rsp"); rsp.Calls > 0 {
		considered := rsp.Counts["records"] + rsp.Counts["skipped"]
		o.metrics["search.rsp.evaluated_share"] = float64(rsp.Counts["records"]) / float64(considered)
	}

	var rootTotal, rootSelf int64
	for _, r := range sum.roots {
		rootTotal += r.dur()
	}
	for _, op := range []string{"transfer", "tune"} {
		rootSelf += sum.stat(op).Self
	}
	o.metrics["core.unaccounted_s"] = perOp(sec(rootSelf))
	if rootTotal > 0 {
		o.metrics["core.unaccounted_share"] = float64(rootSelf) / float64(rootTotal)
	}
}
