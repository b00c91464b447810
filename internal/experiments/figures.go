package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/tabulate"
)

// runFig1 reproduces Figure 1: the run times of random LU configurations
// on Westmere and Sandybridge, with Pearson and Spearman coefficients.
func runFig1(ctx context.Context, cfg Config) (*Report, error) {
	west, sandy, err := pair(ctx, "LU", westmere, sandybridge)
	if err != nil {
		return nil, err
	}

	seq := search.Sequence(west.Space(), cfg.CorrelationSamples, rng.NewNamed(cfg.Seed, "fig1"))
	// Each sample is an independent pair of evaluations, so they fan out
	// over the pool engine; the result slices are indexed by sample,
	// keeping them in sequence order.
	w := make([]float64, len(seq))
	s := make([]float64, len(seq))
	if err := runCells(ctx, cfg, "fig1-samples", len(seq), func(ctx context.Context, i int) error {
		w[i] = search.EvaluateFull(ctx, west, seq[i]).RunTime
		s[i] = search.EvaluateFull(ctx, sandy, seq[i]).RunTime
		return nil
	}); err != nil {
		return nil, err
	}
	rp, err := stats.Pearson(w, s)
	if err != nil {
		return nil, err
	}
	rs, err := stats.Spearman(w, s)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%d LU code variants evaluated on both machines.\n", len(seq))
	fmt.Fprintf(&b, "Pearson rho_p = %.3f, Spearman rho_s = %.3f (paper: both > 0.8)\n\n", rp, rs)
	b.WriteString(tabulate.Scatter("LU run times", "Westmere [s]", "Sandybridge [s]", w, s, 56, 16))

	return &Report{
		Text: b.String(),
		Values: map[string]float64{
			"pearson":  rp,
			"spearman": rs,
			"samples":  float64(len(seq)),
		},
	}, nil
}

// runFig2 reproduces Figure 2: a decision tree fit to MM data collected
// on Sandybridge, rendered as if/else rules over the kernel's parameters.
func runFig2(ctx context.Context, cfg Config) (*Report, error) {
	sandy, err := problemFor(ctx, "MM", sandybridge)
	if err != nil {
		return nil, err
	}
	_, ta := core.Collect(ctx, sandy, cfg.NMax, rng.NewNamed(cfg.Seed, "fig2"))
	X, y := ta.Encode(sandy.Space())
	tree, err := forest.FitTree(X, y, forest.TreeParams{MaxDepth: 3, MinLeaf: 5}, nil)
	if err != nil {
		return nil, err
	}
	rendered := tree.String(sandy.Space().FeatureNames())

	var b strings.Builder
	fmt.Fprintf(&b, "CART regression tree on %d MM evaluations from Sandybridge\n", len(ta))
	b.WriteString("(leaf values are mean run times in seconds; n is the training count)\n\n")
	b.WriteString(rendered)

	return &Report{
		Text: b.String(),
		Values: map[string]float64{
			"depth":   float64(tree.Depth()),
			"leaves":  float64(tree.Leaves()),
			"samples": float64(len(ta)),
		},
	}, nil
}

// transferFigure runs the transfer experiment for each workload of a
// source -> target figure and renders the three panel columns of
// Figures 3-5: model-based trajectories, model-free trajectories, and
// the correlation scatter.
func transferFigure(ctx context.Context, cfg Config, workloads []string, src, tgt spec.Spec) (*Report, error) {
	var b strings.Builder
	values := map[string]float64{}
	var tables []*tabulate.Table

	// One transfer per workload, each with its own source RS stream as in
	// the paper's setup, fanned out over the pool engine; rendering below
	// stays serial in workload order.
	outs := make([]*core.Outcome, len(workloads))
	err := runCells(ctx, cfg, "transfer-figure", len(workloads), func(ctx context.Context, i int) error {
		var err error
		outs[i], err = transfer(ctx, cfg, "wl-"+workloads[i], workloads[i], src, tgt, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	for i, wl := range workloads {
		out := outs[i]

		// The paper's trajectory panels plot best-found run time against
		// elapsed search time; sample every algorithm on a common clock
		// grid spanning the RS baseline's full search.
		grid := timeGrid(out.RS.Elapsed(), 56)
		fmt.Fprintf(&b, "--- %s: %s -> %s ---\n\n", wl, src.Machine, tgt.Machine)
		b.WriteString(tabulate.LinesX(
			fmt.Sprintf("%s model-based variants (best run time [s] vs search time, 0..%.0f s)",
				wl, out.RS.Elapsed()),
			"clock-grid point",
			[]string{"RS", "RSp", "RSb"},
			[][]float64{
				finiteOnly(out.RS.SampleBestOverTime(grid)),
				finiteOnly(out.RSp.SampleBestOverTime(grid)),
				finiteOnly(out.RSb.SampleBestOverTime(grid)),
			},
			56, 12))
		b.WriteString("\n")
		b.WriteString(tabulate.LinesX(
			fmt.Sprintf("%s model-free variants (best run time [s] vs search time, 0..%.0f s)",
				wl, out.RS.Elapsed()),
			"clock-grid point",
			[]string{"RS", "RSpf", "RSbf"},
			[][]float64{
				finiteOnly(out.RS.SampleBestOverTime(grid)),
				finiteOnly(out.RSpf.SampleBestOverTime(grid)),
				finiteOnly(out.RSbf.SampleBestOverTime(grid)),
			},
			56, 12))
		b.WriteString("\n")
		b.WriteString(tabulate.Scatter(
			fmt.Sprintf("%s correlation (rho_p=%.2f rho_s=%.2f)", wl, out.Pearson, out.Spearman),
			src.Machine+" [s]", tgt.Machine+" [s]",
			out.SourceRuns, out.TargetRuns, 56, 14))
		b.WriteString("\n")

		tb := tabulate.NewTable(fmt.Sprintf("%s speedups over RS", wl),
			"Variant", "Prf.Imp", "Srh.Imp")
		for _, name := range []string{"RSp", "RSb", "RSpf", "RSbf"} {
			sp := out.Speedups[name]
			tb.AddRow(name, tabulate.F(sp.Performance), tabulate.F(sp.SearchTime))
			values[wl+"/"+name+"/perf"] = sp.Performance
			values[wl+"/"+name+"/search"] = sp.SearchTime
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
		tables = append(tables, tb)

		values[wl+"/pearson"] = out.Pearson
		values[wl+"/spearman"] = out.Spearman
	}

	return &Report{Text: b.String(), Tables: tables, Values: values}, nil
}

// timeGrid returns n uniform search-clock instants over (0, total].
func timeGrid(total float64, n int) []float64 {
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = total * float64(i+1) / float64(n)
	}
	return grid
}

// finiteOnly trims leading +Inf samples (instants before an algorithm's
// first evaluation) so the plot scale stays finite.
func finiteOnly(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

func runFig3(ctx context.Context, cfg Config) (*Report, error) {
	return transferFigure(ctx, cfg, []string{"ATAX", "LU", "HPL", "RT"}, westmere, sandybridge)
}

func runFig4(ctx context.Context, cfg Config) (*Report, error) {
	return transferFigure(ctx, cfg, []string{"ATAX", "LU", "HPL", "RT"},
		sandybridge, spec.Spec{Machine: machine.Power7.Name})
}

func runFig5(ctx context.Context, cfg Config) (*Report, error) {
	// Xeon Phi experiments: Intel compiler, OpenMP with 8 threads on the
	// big cores and 60 on the Phi (Section V).
	return transferFigure(ctx, cfg, []string{"MM", "LU", "COR"},
		spec.Spec{Machine: machine.Sandybridge.Name, Compiler: machine.Intel.Name, Threads: 8},
		spec.Spec{Machine: machine.XeonPhi.Name, Compiler: machine.Intel.Name, Threads: 60})
}
