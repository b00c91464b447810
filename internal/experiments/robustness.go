package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/tabulate"
)

// The ext-robustness experiment stresses the fault-aware evaluation
// layer: the fig3 transfer (LU, Westmere -> Sandybridge) repeated under
// injected evaluation failures at 0%, 10%, and 30%, plus a
// near-total-failure scenario demonstrating the graceful fallback of
// Transfer to plain RS when too few source measurements survive.

func init() {
	registry["ext-robustness"] = registryEntry{
		"Extension: speedup metrics under injected evaluation failures", runExtRobustness}
}

// faulty wraps a problem in a fault injector scaled to the given total
// failure rate and a resilient evaluator whose timeout cap censors
// hangs. rate 0 returns the problem untouched.
func faulty(ctx context.Context, p search.Problem, machineName string, rate float64, seed uint64) search.Problem {
	if rate <= 0 {
		return p
	}
	// Cap the run time at a generous multiple of the default
	// configuration's: slow-but-honest variants survive, hangs (50x) do
	// not.
	defRun := search.EvaluateFull(ctx, p, p.Space().Default()).RunTime
	inj := faults.Wrap(p, faults.Profile(machineName).ScaledTo(rate), seed)
	return search.NewResilient(inj, search.ResilientOptions{
		Retries: 2,
		Timeout: 25 * defRun,
		Backoff: 0.5,
	})
}

func runExtRobustness(ctx context.Context, cfg Config) (*Report, error) {
	counts := tabulate.NewTable("LU Westmere -> Sandybridge: evaluation statuses per run",
		"Fail rate", "Run", "Evals", "OK", "Censored", "Failed", "Retried")
	speed := tabulate.NewTable("Speedups over RS under failure injection",
		"Fail rate", "Variant", "Perf", "Search")
	values := map[string]float64{}
	var b strings.Builder

	// One cell per failure rate; each builds its own (wrapped) problem
	// instances, so the cells share nothing mutable.
	rates := []float64{0, 0.10, 0.30}
	outs := make([]*core.Outcome, len(rates))
	err := runCells(ctx, cfg, "ext-robustness-cells", len(rates), func(ctx context.Context, i int) error {
		rate := rates[i]
		tag := fmt.Sprintf("r%02.0f", rate*100)
		seed := cfg.Seed ^ rng.Hash64("ext-robustness/"+tag)
		// The fault and resilience layers go on top of the pool, so workers
		// evaluate the bare problems and every fault is rolled here.
		src, tgt, err := pair(ctx, "LU", westmere, sandybridge)
		if err != nil {
			return err
		}
		// Same candidate streams at every rate (transferOpts' seed is
		// cfg.Seed): only the faults differ.
		outs[i], err = core.Run(ctx, faulty(ctx, src, "Westmere", rate, seed),
			faulty(ctx, tgt, "Sandybridge", rate, seed+1), transferOpts(cfg))
		return err
	})
	if err != nil {
		return nil, err
	}

	for i, rate := range rates {
		out := outs[i]
		tag := fmt.Sprintf("r%02.0f", rate*100)
		rateLabel := fmt.Sprintf("%.0f%%", rate*100)
		for _, name := range []string{"SourceRS", "RS", "RSp", "RSb", "RSpf", "RSbf"} {
			c := out.FailureCounts[name]
			counts.AddRow(rateLabel, name,
				fmt.Sprintf("%d", c.Total()), fmt.Sprintf("%d", c.OK),
				fmt.Sprintf("%d", c.Censored), fmt.Sprintf("%d", c.Failed),
				fmt.Sprintf("%d", c.Retried))
			values[fmt.Sprintf("%s/%s/failed", tag, name)] = float64(c.Failed)
			values[fmt.Sprintf("%s/%s/censored", tag, name)] = float64(c.Censored)
			values[fmt.Sprintf("%s/%s/evals", tag, name)] = float64(c.Total())
		}
		for _, name := range []string{"RSp", "RSb", "RSpf", "RSbf"} {
			sp := out.Speedups[name]
			speed.AddRow(rateLabel, name, tabulate.F(sp.Performance), tabulate.F(sp.SearchTime))
			values[fmt.Sprintf("%s/%s/perf", tag, name)] = sp.Performance
			values[fmt.Sprintf("%s/%s/search", tag, name)] = sp.SearchTime
		}
		if out.Degraded {
			values[tag+"/degraded"] = 1
		}
	}

	b.WriteString(counts.String())
	b.WriteString("\n")
	b.WriteString(speed.String())

	// Graceful-degradation scenario: a source machine whose toolchain
	// rejects nearly every configuration. Transfer must not error — it
	// falls back to plain RS on the target and says so.
	src, tgt, err := pair(ctx, "LU", westmere, sandybridge)
	if err != nil {
		return nil, err
	}
	src = search.NewResilient(
		faults.Wrap(src, faults.Rates{CompileFail: 0.97}, cfg.Seed^rng.Hash64("ext-robustness/fallback")),
		search.ResilientOptions{Retries: 1, Backoff: 0.5})
	out, err := core.Run(ctx, src, tgt, transferOpts(cfg))
	if err != nil {
		return nil, err
	}
	values["fallback/degraded"] = 0
	if out.Degraded {
		values["fallback/degraded"] = 1
	}
	values["fallback/source-failed"] = float64(out.FailureCounts["SourceRS"].Failed)
	b.WriteString("\nFallback scenario (97% source compile failure):\n")
	for _, w := range out.Warnings {
		b.WriteString("  warning: " + w + "\n")
	}
	b.WriteString(fmt.Sprintf("  source evals: %d (%d failed), degraded=%v\n",
		out.FailureCounts["SourceRS"].Total(), out.FailureCounts["SourceRS"].Failed, out.Degraded))

	b.WriteString("\nFailures shrink the effective budget of every variant, but the\n" +
		"search completes and the speedup metrics stay computable; when the\n" +
		"source data is destroyed outright, the transfer degrades to plain\n" +
		"RS with a structured warning instead of erroring.\n")
	return &Report{Text: b.String(), Tables: []*tabulate.Table{counts, speed}, Values: values}, nil
}
