// Command transfer runs one cross-machine transfer experiment: collect
// T_a on the source machine, fit the surrogate, and compare RS, RSp,
// RSb, RSpf, RSbf on the target under common random numbers.
//
// Usage:
//
//	transfer -problem LU -source Westmere -target Sandybridge
//	         [-compiler gnu-4.4.7] [-threads 1] [-nmax 100]
//	         [-pool 10000] [-delta 20] [-trees 100] [-seed 2016]
//
// An invalid evaluation spec on either machine (unknown problem,
// machine, or compiler, a compiler the machine lacks, a negative
// thread count or budget) is a usage error (exit 2).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/search"
	"repro/internal/space"
	"repro/internal/spec"
	"repro/internal/tabulate"
)

func main() {
	var (
		problem   = flag.String("problem", "LU", "MM|ATAX|COR|LU|HPL|RT")
		source    = flag.String("source", "Westmere", "source machine (provides T_a)")
		target    = flag.String("target", "Sandybridge", "target machine")
		compilerN = flag.String("compiler", "gnu-4.4.7", "compiler (kernels only)")
		threads   = flag.Int("threads", 1, "OpenMP threads")
		nmax      = flag.Int("nmax", 100, "evaluation budget")
		pool      = flag.Int("pool", 10000, "configuration pool size N")
		delta     = flag.Float64("delta", 20, "pruning cutoff quantile (percent)")
		trees     = flag.Int("trees", 100, "surrogate forest size")
		seed      = flag.Uint64("seed", 2016, "random seed")
		saveTa    = flag.String("save-ta", "", "write the collected T_a as CSV")
		saveModel = flag.String("save-model", "", "write the fitted surrogate as JSON")
	)
	flag.Parse()

	srcSpec := spec.Spec{Problem: *problem, Machine: *source, Compiler: *compilerN, Threads: *threads, Budget: *nmax}
	tgtSpec := srcSpec
	tgtSpec.Machine = *target
	src, err := srcSpec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "transfer:", err)
		os.Exit(2)
	}
	tgt, err := tgtSpec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "transfer:", err)
		os.Exit(2)
	}

	out, err := core.Run(context.Background(), src, tgt, core.Options{
		NMax: *nmax, PoolSize: *pool, DeltaPct: *delta,
		Forest: forest.Params{Trees: *trees}, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "transfer:", err)
		os.Exit(1)
	}

	fmt.Printf("transfer %s: %s -> %s\n\n", *problem, out.Source, out.Target)
	fmt.Printf("run-time correlation across machines: pearson=%.3f spearman=%.3f\n",
		out.Pearson, out.Spearman)
	fmt.Printf("surrogate-vs-target rank correlation: %.3f\n\n", out.SurrogateSpearman)

	rsBest, rsIdx, _ := out.RS.Best()
	fmt.Printf("RS baseline: best run %.4f s, found at search time %.1f s\n\n",
		rsBest.RunTime, out.RS.Records[rsIdx].Elapsed)

	tb := tabulate.NewTable("speedups over RS (paper metrics)",
		"Variant", "Best run [s]", "Prf.Imp", "Srh.Imp", "Success")
	for _, name := range []string{"RSp", "RSb", "RSpf", "RSbf"} {
		res := map[string]*search.Result{
			"RSp": out.RSp, "RSb": out.RSb, "RSpf": out.RSpf, "RSbf": out.RSbf,
		}[name]
		best, _, ok := res.Best()
		bestStr := "-"
		if ok {
			bestStr = fmt.Sprintf("%.4f", best.RunTime)
		}
		sp := out.Speedups[name]
		success := ""
		if sp.Success {
			success = "yes"
		}
		tb.AddRow(name, bestStr, tabulate.F(sp.Performance), tabulate.F(sp.SearchTime), success)
	}
	fmt.Println(tb.String())

	if *saveTa != "" {
		if err := writeTa(*saveTa, out.Ta, src.Space()); err != nil {
			fmt.Fprintln(os.Stderr, "transfer:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote T_a (%d samples) to %s\n", len(out.Ta), *saveTa)
	}
	if *saveModel != "" {
		// The surrogate core.Run fitted and searched with; a degraded run
		// has none, and its warning carries the fit error.
		if out.Surrogate == nil {
			fmt.Fprintln(os.Stderr, "transfer:", strings.Join(out.Warnings, "; "))
			os.Exit(1)
		}
		if err := writeModel(*saveModel, out.Surrogate); err != nil {
			fmt.Fprintln(os.Stderr, "transfer:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote surrogate (%d trees) to %s\n", out.Surrogate.Forest.NumTrees(), *saveModel)
	}
}

func writeTa(path string, ta search.Dataset, spc *space.Space) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ta.SaveCSV(f, spc); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func writeModel(path string, sur *core.Surrogate) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sur.Forest.Save(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
