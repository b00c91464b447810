// Command treeviz reproduces Figure 2: fit a decision tree to autotuning
// data collected on one machine and print it as if/else rules over the
// kernel parameters (unrolls, cache tiles, register tiles). The data
// comes from the machine's default target: GNU compiler, one thread.
//
// Usage:
//
//	treeviz [-problem MM] [-machine Sandybridge] [-n 100] [-depth 3]
//	        [-forest] [-seed 2016]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/spec"
)

func main() {
	var (
		problem  = flag.String("problem", "MM", "MM|ATAX|COR|LU|HPL|RT")
		machineN = flag.String("machine", "Sandybridge", "machine providing the data")
		n        = flag.Int("n", 100, "training evaluations")
		depth    = flag.Int("depth", 3, "maximum tree depth")
		asForest = flag.Bool("forest", false, "fit a full random forest and report OOB error and importances")
		seed     = flag.Uint64("seed", 2016, "random seed")
	)
	flag.Parse()

	p, err := (&spec.Spec{Problem: *problem, Machine: *machineN}).Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "treeviz:", err)
		os.Exit(1)
	}
	_, ta := core.Collect(context.Background(), p, *n, rng.NewNamed(*seed, "treeviz"))
	X, y := ta.Encode(p.Space())

	if *asForest {
		f, err := forest.Fit(X, y, forest.Params{}, rng.New(*seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "treeviz:", err)
			os.Exit(1)
		}
		oob, _ := f.OOBError()
		fmt.Printf("random forest on %d %s evaluations from %s: %d trees, OOB RMSE %.4f s\n\n",
			len(ta), *problem, *machineN, f.NumTrees(), oob)
		fmt.Println("feature importances:")
		names := p.Space().FeatureNames()
		for i, imp := range f.Importance() {
			fmt.Printf("  %-12s %6.1f%%\n", names[i], 100*imp)
		}
		fmt.Println("\nfirst tree of the ensemble:")
		fmt.Print(f.Tree(0).String(names))
		return
	}

	tree, err := forest.FitTree(X, y, forest.TreeParams{MaxDepth: *depth, MinLeaf: 5}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "treeviz:", err)
		os.Exit(1)
	}
	fmt.Printf("decision tree on %d %s evaluations from %s (leaf values: mean run time, s)\n\n",
		len(ta), *problem, *machineN)
	fmt.Print(tree.String(p.Space().FeatureNames()))
}
