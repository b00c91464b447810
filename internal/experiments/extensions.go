package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/tabulate"
)

// The ext-* experiments implement the paper's future-work directions
// (Section VII): generalizing the transfer across input sizes, and
// combining the surrogate with more sophisticated search algorithms.

func init() {
	registry["ext-inputsize"] = registryEntry{
		"Extension: transfer across input sizes (paper future work)", runExtInputSize}
	registry["ext-algos"] = registryEntry{
		"Extension: surrogate transfer with sophisticated search algorithms", runExtAlgos}
	registry["ext-surrogates"] = registryEntry{
		"Extension: surrogate-family ablation (forest vs tree vs kNN vs linear)", runExtSurrogates}
	registry["ext-replicates"] = registryEntry{
		"Extension: replicated transfer with significance testing", runExtReplicates}
}

// runExtInputSize trains the surrogate on MM at one input size on the
// source machine and deploys it at different input sizes on the target:
// "we will also investigate whether the proposed approach can be
// generalized for different input sizes".
func runExtInputSize(ctx context.Context, cfg Config) (*Report, error) {
	tb := tabulate.NewTable("MM: Westmere @2000 -> Sandybridge @N",
		"Target N", "Pearson", "Spearman", "RSb Prf", "RSb Srh")
	values := map[string]float64{}
	var b strings.Builder

	// One cell per target input size; each cell builds its own problem
	// instances (the source is always the paper's 2000x2000 problem, the
	// target MM at size N, named "MM_n<N>" off the paper size).
	sizes := []int{1000, 1500, kernels.DefaultMMSize, 3000}
	outs := make([]*core.Outcome, len(sizes))
	err := runCells(ctx, cfg, "ext-inputsize-cells", len(sizes), func(ctx context.Context, i int) error {
		n := sizes[i]
		pre, err := prepare(ctx, cfg, fmt.Sprintf("ext-size-%d", n), "MM", westmere)
		if err != nil {
			return err
		}
		tp, err := problemFor(ctx, kernels.MM(n).Name, sandybridge)
		if err != nil {
			return err
		}
		outs[i], err = pre.Run(ctx, tp)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		out := outs[i]
		sp := out.Speedups["RSb"]
		tb.AddRow(fmt.Sprintf("%d", n), tabulate.F(out.Pearson), tabulate.F(out.Spearman),
			tabulate.F(sp.Performance), tabulate.F(sp.SearchTime))
		values[fmt.Sprintf("N%d/spearman", n)] = out.Spearman
		values[fmt.Sprintf("N%d/RSb/perf", n)] = sp.Performance
		values[fmt.Sprintf("N%d/RSb/search", n)] = sp.SearchTime
	}
	b.WriteString(tb.String())
	b.WriteString("\nThe source data always comes from the 2000x2000 problem; the\n" +
		"surrogate transfers across both the machine and the input size as\n" +
		"long as the working-set structure (which tiles fit which cache)\n" +
		"stays comparable.\n")
	return &Report{Text: b.String(), Tables: []*tabulate.Table{tb}, Values: values}, nil
}

// runExtAlgos compares plain heuristics against their surrogate-assisted
// counterparts on the target machine: "we will test the proposed
// approach with other sophisticated search algorithms in order to
// achieve performance improvements."
func runExtAlgos(ctx context.Context, cfg Config) (*Report, error) {
	src, err := problemFor(ctx, "LU", westmere)
	if err != nil {
		return nil, err
	}
	spc := src.Space()

	seed := cfg.Seed ^ rng.Hash64("ext-algos")
	_, ta := core.Collect(ctx, src, cfg.NMax, rng.NewNamed(seed, "collect"))
	sur, err := core.FitSurrogate(ta, spc, src.Name(), transferOpts(cfg).Forest,
		rng.NewNamed(seed, "forest"))
	if err != nil {
		return nil, err
	}

	// RSb's sequence over the pool, best predicted first: its head
	// warm-starts the sophisticated searches.
	best := search.ScorePool(spc, sur, cfg.PoolSize, rng.NewNamed(seed, "pool")).Best(cfg.NMax)
	warm := best[0]

	// One cell per algorithm. The cells share the read-only surrogate,
	// space, and source dataset (Model implementations are goroutine-safe
	// for Predict; see search.Model), but each builds its own target
	// problem and rng streams, so runs are independent and their results
	// identical to the serial ones.
	refit := func(d search.Dataset) (search.Model, error) {
		return core.FitSurrogate(d, spc, "refit", transferOpts(cfg).Forest,
			rng.NewNamed(seed, "refit"))
	}
	algos := []struct {
		name string
		run  func(ctx context.Context, tgt search.Problem) (*search.Result, error)
	}{
		{"RS", func(ctx context.Context, tgt search.Problem) (*search.Result, error) {
			return search.RS(ctx, tgt, cfg.NMax, rng.NewNamed(seed, "rs")), nil
		}},
		{"RSb", func(ctx context.Context, tgt search.Problem) (*search.Result, error) {
			// best is the sequence RSb would draw: same seed, surrogate, space.
			return search.Replay(ctx, tgt, best, "RSb"), nil
		}},
		{"SA", func(ctx context.Context, tgt search.Problem) (*search.Result, error) {
			return search.Drive(ctx, tgt, search.NewAnneal(spc, rng.NewNamed(seed, "sa"), 0.95), cfg.NMax), nil
		}},
		{"SA+model", func(ctx context.Context, tgt search.Problem) (*search.Result, error) {
			warmSA := search.NewAnneal(spc, rng.NewNamed(seed, "sa+model"), 0.95)
			warmSA.SetStart(warm)
			return search.Drive(ctx, tgt, warmSA, cfg.NMax), nil
		}},
		{"GA", func(ctx context.Context, tgt search.Problem) (*search.Result, error) {
			return search.Drive(ctx, tgt, search.NewGenetic(spc, rng.NewNamed(seed, "ga"), 16, 0.15), cfg.NMax), nil
		}},
		{"PS", func(ctx context.Context, tgt search.Problem) (*search.Result, error) {
			return search.Drive(ctx, tgt, search.NewPattern(spc, rng.NewNamed(seed, "ps"), 4), cfg.NMax), nil
		}},
		// Active learning: RSb that refits the surrogate on source+target
		// observations every 10 evaluations.
		{"RSb+refit", func(ctx context.Context, tgt search.Problem) (*search.Result, error) {
			return search.RSbA(ctx, tgt, sur, ta,
				search.RSbOptions{NMax: cfg.NMax, PoolSize: cfg.PoolSize}, 10, refit,
				rng.NewNamed(seed, "pool"))
		}},
	}
	results := make([]*search.Result, len(algos))
	if err := runCells(ctx, cfg, "ext-algos-cells", len(algos), func(ctx context.Context, i int) error {
		tgt, err := problemFor(ctx, "LU", sandybridge)
		if err != nil {
			return err
		}
		results[i], err = algos[i].run(ctx, tgt)
		return err
	}); err != nil {
		return nil, err
	}

	tb := tabulate.NewTable("LU on Sandybridge (Westmere surrogate), equal budgets",
		"Algorithm", "Best run [s]", "Search time [s]", "Found at eval")
	values := map[string]float64{}
	for i, a := range algos {
		res := results[i]
		bst, idx, ok := res.Best()
		if !ok {
			continue
		}
		tb.AddRow(a.name, fmt.Sprintf("%.4f", bst.RunTime),
			fmt.Sprintf("%.1f", res.Records[idx].Elapsed), fmt.Sprintf("%d", idx+1))
		values[a.name+"/best"] = bst.RunTime
		values[a.name+"/time"] = res.Records[idx].Elapsed
	}
	text := tb.String() + "\nSA+model warm-starts simulated annealing at the surrogate's\n" +
		"predicted-best configuration, and RSb+refit refits the surrogate on\n" +
		"source+target data during the search — transfer composed with\n" +
		"sophisticated and active-learning search, the paper's proposed\n" +
		"future work.\n"
	return &Report{Text: text, Tables: []*tabulate.Table{tb}, Values: values}, nil
}

// runExtSurrogates ablates the supervised-learning family behind M_a.
func runExtSurrogates(ctx context.Context, cfg Config) (*Report, error) {
	src, tgt, err := pair(ctx, "LU", westmere, sandybridge)
	if err != nil {
		return nil, err
	}

	seed := cfg.Seed ^ rng.Hash64("ext-surrogates")
	_, ta := core.Collect(ctx, src, cfg.NMax, rng.NewNamed(seed, "collect"))
	rs := search.RS(ctx, tgt, cfg.NMax, rng.NewNamed(seed, "collect"))

	tb := tabulate.NewTable("Surrogate families guiding RSb on LU Westmere -> Sandybridge",
		"Family", "RSb best [s]", "Prf.Imp", "Srh.Imp")
	values := map[string]float64{}
	// One cell per surrogate family: each fits its own model and runs its
	// own RSb against a private target problem instance; the shared RS
	// baseline and training dataset are read-only.
	families := []core.SurrogateFamily{
		core.FamilyForest, core.FamilyTree, core.FamilyKNN, core.FamilyLinear,
	}
	famResults := make([]*search.Result, len(families))
	if err := runCells(ctx, cfg, "ext-surrogates-cells", len(families), func(ctx context.Context, i int) error {
		m, err := core.FitFamily(families[i], ta, src.Space(), seed)
		if err != nil {
			return err
		}
		cellTgt, err := problemFor(ctx, "LU", sandybridge)
		if err != nil {
			return err
		}
		famResults[i] = search.RSb(ctx, cellTgt, m, search.RSbOptions{NMax: cfg.NMax, PoolSize: cfg.PoolSize},
			rng.NewNamed(seed, "pool"))
		return nil
	}); err != nil {
		return nil, err
	}
	for i, fam := range families {
		res := famResults[i]
		sp := core.ComputeSpeedups(rs, res)
		bst, _, _ := res.Best()
		tb.AddRow(string(fam), fmt.Sprintf("%.4f", bst.RunTime),
			tabulate.F(sp.Performance), tabulate.F(sp.SearchTime))
		values[string(fam)+"/perf"] = sp.Performance
		values[string(fam)+"/search"] = sp.SearchTime
	}
	return &Report{Text: tb.String(), Tables: []*tabulate.Table{tb}, Values: values}, nil
}

// runExtReplicates re-runs the headline LU Westmere -> Sandybridge
// transfer across independent seeds and reports medians with a Wilcoxon
// signed-rank test of the variants' best-found run times against RS —
// the statistical treatment the paper's single-run protocol leaves out.
func runExtReplicates(ctx context.Context, cfg Config) (*Report, error) {
	const replicates = 12
	variants := []string{"RSp", "RSb", "RSpf", "RSbf"}
	rsBest := make([]float64, 0, replicates)
	bests := map[string][]float64{}
	perf := map[string][]float64{}
	srh := map[string][]float64{}

	// One cell per replicate, each with its own problem instances and its
	// own derived seed; aggregation below stays in replicate order.
	outs := make([]*core.Outcome, replicates)
	err := runCells(ctx, cfg, "ext-replicates-cells", replicates, func(ctx context.Context, rep int) error {
		var err error
		outs[rep], err = transfer(ctx, cfg, fmt.Sprintf("replicate-%d", rep), "LU", westmere, sandybridge)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		rb, _, _ := out.RS.Best()
		rsBest = append(rsBest, rb.RunTime)
		for _, v := range variants {
			res := map[string]*search.Result{
				"RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf,
			}[v]
			b, _, _ := res.Best()
			bests[v] = append(bests[v], b.RunTime)
			perf[v] = append(perf[v], out.Speedups[v].Performance)
			srh[v] = append(srh[v], out.Speedups[v].SearchTime)
		}
	}

	tb := tabulate.NewTable(
		fmt.Sprintf("LU Westmere -> Sandybridge, %d replicates", replicates),
		"Variant", "Median Prf", "Median Srh", "Wilcoxon p (best vs RS)")
	values := map[string]float64{}
	for _, v := range variants {
		pStr := "-"
		if w, err := stats.Wilcoxon(rsBest, bests[v]); err == nil {
			pStr = fmt.Sprintf("%.4f", w.P)
			values[v+"/p"] = w.P
		}
		mp := stats.Median(perf[v])
		ms := stats.Median(srh[v])
		tb.AddRow(v, tabulate.F(mp), tabulate.F(ms), pStr)
		values[v+"/median_perf"] = mp
		values[v+"/median_search"] = ms
	}
	text := tb.String() + "\nEach replicate is one full common-random-numbers transfer under an\n" +
		"independent seed; the p-values test whether the variant's best-found\n" +
		"run times differ from RS's across replicates.\n"
	return &Report{Text: text, Tables: []*tabulate.Table{tb}, Values: values}, nil
}
