// Command correlate reproduces Figure 1-style cross-machine correlation
// studies: evaluate N random configurations of a kernel on two machines
// and report Pearson/Spearman/Kendall coefficients with a scatter plot.
//
// Usage:
//
//	correlate -problem LU -a Westmere -b Sandybridge [-n 200] [-seed 2016]
//
// An unknown problem or machine is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/tabulate"
)

func main() {
	var (
		problem = flag.String("problem", "LU", "MM|ATAX|COR|LU|HPL|RT")
		aName   = flag.String("a", "Westmere", "first machine")
		bName   = flag.String("b", "Sandybridge", "second machine")
		n       = flag.Int("n", 200, "number of random configurations")
		seed    = flag.Uint64("seed", 2016, "random seed")
	)
	flag.Parse()

	pa, err := build(*problem, *aName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "correlate:", err)
		os.Exit(2)
	}
	pb, err := build(*problem, *bName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "correlate:", err)
		os.Exit(2)
	}

	seq := search.Sequence(pa.Space(), *n, rng.NewNamed(*seed, "correlate"))
	var xs, ys []float64
	for _, c := range seq {
		ra, _ := pa.Evaluate(c)
		rb, _ := pb.Evaluate(c)
		xs = append(xs, ra)
		ys = append(ys, rb)
	}
	rp, _ := stats.Pearson(xs, ys)
	rs, _ := stats.Spearman(xs, ys)
	tau, _ := stats.Kendall(xs, ys)

	fmt.Printf("%s: %d configurations on %s and %s\n", *problem, len(seq), *aName, *bName)
	fmt.Printf("pearson=%.3f  spearman=%.3f  kendall=%.3f\n\n", rp, rs, tau)
	fmt.Print(tabulate.Scatter("run-time correlation",
		*aName+" [s]", *bName+" [s]", xs, ys, 64, 18))
}

// build validates and builds the bare problem on one machine under the
// default target (GNU compiler, one thread).
func build(name, machineN string) (search.Problem, error) {
	sp := spec.Spec{Problem: name, Machine: machineN}
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp.Base()
}
