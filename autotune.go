// Package autotune reproduces "Exploiting Performance Portability in
// Search Algorithms for Autotuning" (Roy, Balaprakash, Hovland, Wild;
// 2016): autotuning search accelerated across machines by a surrogate
// performance model trained on another machine's measurements.
//
// The package is a facade over the implementation packages:
//
//   - internal/space:      configuration spaces and sampling
//   - internal/ir, transform, annotate: kernels as loop nests and their
//     code transformations (Orio's role)
//   - internal/cache, machine, sim: the analytical architecture
//     simulator standing in for the paper's five-machine testbed
//   - internal/kernels, miniapps: SPAPT kernels (MM, ATAX, COR, LU) and
//     the HPL / Raytracer mini-apps
//   - internal/forest:     random-forest surrogate models
//   - internal/search:     RS, RSp, RSb, RSpf, RSbf and extension
//     heuristics (SA, GA, pattern search), plus the failure-aware
//     Resilient evaluator (retry/timeout budgets, censored records)
//   - internal/faults:     deterministic, seeded fault injection with
//     per-machine failure profiles
//   - internal/opentuner:  technique-ensemble meta-tuner
//   - internal/core:       the transfer methodology (the paper's
//     contribution)
//   - internal/experiments: one runnable experiment per table/figure
//
// Quick start:
//
//	p, _ := autotune.NewKernelProblem("LU", "Sandybridge", "gnu-4.4.7", 1)
//	res := autotune.RandomSearch(context.Background(), p, 100, 42)
//	best, _, _ := res.Best()
//	fmt.Println(p.Space().String(best.Config), best.RunTime)
//
// Cross-machine transfer (the paper's contribution):
//
//	src, _ := autotune.NewKernelProblem("LU", "Westmere", "gnu-4.4.7", 1)
//	tgt, _ := autotune.NewKernelProblem("LU", "Sandybridge", "gnu-4.4.7", 1)
//	out, _ := autotune.Transfer(context.Background(), src, tgt, autotune.TransferOptions{Seed: 1})
//	fmt.Println(out.Speedups["RSb"]) // performance & search-time speedups
package autotune

import (
	"context"
	"io"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/forest"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/opentuner"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/spec"
)

// Core re-exported types. The aliases keep one import path for users
// while the implementation lives in focused internal packages.
type (
	// Space is a discrete configuration space; Config is a point in it.
	Space  = space.Space
	Config = space.Config
	// Param is one tunable parameter of a Space.
	Param = space.Param

	// Problem is anything the search algorithms can tune.
	Problem = search.Problem
	// Result is a search run; Record one evaluated configuration.
	Result = search.Result
	Record = search.Record
	// Dataset is a set of (configuration, run time) samples — the
	// paper's T_a.
	Dataset = search.Dataset

	// Machine and Compiler describe the simulated platforms.
	Machine  = machine.Machine
	Compiler = machine.Compiler
	// Target is a (machine, compiler, threads) execution environment.
	Target = sim.Target

	// Kernel is a tunable SPAPT-style kernel.
	Kernel = kernels.Kernel

	// Surrogate is a cross-machine performance model.
	Surrogate = core.Surrogate
	// TransferOptions configures a transfer experiment; Outcome is its
	// full result; Speedups are the paper's two metrics.
	TransferOptions = core.Options
	Outcome         = core.Outcome
	Speedups        = core.Speedups

	// ExperimentConfig scales a paper experiment; ExperimentReport is
	// its rendered output.
	ExperimentConfig = experiments.Config
	ExperimentReport = experiments.Report

	// ForestParams configures the random-forest surrogate.
	ForestParams = forest.Params

	// EvalStatus classifies how each evaluation ended, EvalCounts
	// tallies a run.
	EvalStatus = search.Status
	EvalCounts = search.Counts
	// EvalOutcome is the reduced result of one resilient evaluation.
	EvalOutcome = search.Outcome

	// FaultRates configures the deterministic fault injector;
	// ResilientOptions sets the retry/timeout budgets of WithFaults and
	// WithResilience.
	FaultRates       = faults.Rates
	ResilientOptions = search.ResilientOptions
)

// Evaluation statuses recorded on each search Record.
const (
	EvalOK       = search.StatusOK
	EvalCensored = search.StatusCensored
	EvalFailed   = search.StatusFailed
)

// Machines returns the five simulated machines of the paper's Table II.
func Machines() []Machine { return machine.All() }

// MachineByName looks up a machine ("Sandybridge", "Westmere", "XeonPhi",
// "Power7", "X-Gene").
func MachineByName(name string) (Machine, error) { return machine.ByName(name) }

// Compilers returns the modeled compilers (gnu-4.4.7 and intel-15.0.1).
func Compilers() []Compiler { return machine.Compilers() }

// Kernels returns the four SPAPT kernels at their paper input sizes.
func Kernels() []*Kernel { return kernels.All() }

// KernelByName looks up MM, ATAX, COR, or LU.
func KernelByName(name string) (*Kernel, error) { return kernels.ByName(name) }

// ParseKernel parses a kernel in the Orio-inspired annotation language
// (see internal/annotate for the grammar).
func ParseKernel(text string) (*Kernel, error) { return annotate.Parse(text) }

// NewKernelProblem builds a tuning problem: a named kernel on a named
// machine under a named compiler with the given OpenMP thread count.
// (The mini-app names HPL and RT resolve too, as in cmd/autotune.)
func NewKernelProblem(kernel, machineName, compilerName string, threads int) (Problem, error) {
	return spec.Spec{Problem: kernel, Machine: machineName, Compiler: compilerName, Threads: threads}.Base()
}

// NewProblemFromKernel is NewKernelProblem for an already-built kernel
// (e.g. one parsed from annotation text).
func NewProblemFromKernel(k *Kernel, machineName, compilerName string, threads int) (Problem, error) {
	return spec.Spec{Machine: machineName, Compiler: compilerName, Threads: threads}.BaseFor(k)
}

// NewHPLProblem builds the HPL mini-app tuning problem on a machine.
func NewHPLProblem(machineName string) (Problem, error) {
	return spec.Spec{Problem: "HPL", Machine: machineName}.Base()
}

// NewRTProblem builds the Raytracer compiler-flag tuning problem.
func NewRTProblem(machineName string) (Problem, error) {
	return spec.Spec{Problem: "RT", Machine: machineName}.Base()
}

// RandomSearch runs random search without replacement for nmax
// evaluations with the given seed. Cancelling ctx stops the search at
// the next evaluation boundary; the partial Result is still valid.
func RandomSearch(ctx context.Context, p Problem, nmax int, seed uint64) *Result {
	return search.RS(ctx, p, nmax, rng.New(seed))
}

// CollectDataset runs RS on a problem and returns the (configuration,
// run time) samples — the T_a of the paper.
func CollectDataset(ctx context.Context, p Problem, nmax int, seed uint64) (*Result, Dataset) {
	return core.Collect(ctx, p, nmax, rng.New(seed))
}

// FitSurrogate trains a random-forest surrogate on a dataset.
func FitSurrogate(ta Dataset, spc *Space, source string, params ForestParams, seed uint64) (*Surrogate, error) {
	return core.FitSurrogate(ta, spc, source, params, rng.New(seed))
}

// BiasedSearch runs RSb (Algorithm 2) on the target problem guided by a
// surrogate trained elsewhere.
func BiasedSearch(ctx context.Context, tgt Problem, sur *Surrogate, nmax, poolSize int, seed uint64) *Result {
	return search.RSb(ctx, tgt, sur, search.RSbOptions{NMax: nmax, PoolSize: poolSize}, rng.New(seed))
}

// PrunedSearch runs RSp (Algorithm 1) on the target problem guided by a
// surrogate trained elsewhere.
func PrunedSearch(ctx context.Context, tgt Problem, sur *Surrogate, nmax, poolSize int, deltaPct float64, seed uint64) *Result {
	return search.RSp(ctx, tgt, sur,
		search.RSpOptions{NMax: nmax, PoolSize: poolSize, DeltaPct: deltaPct},
		rng.NewNamed(seed, "stream"), rng.NewNamed(seed, "pool"))
}

// Transfer runs the complete source -> target experiment (collect T_a,
// fit the surrogate, run RS/RSp/RSb/RSpf/RSbf under common random
// numbers, compute the paper's speedup metrics).
func Transfer(ctx context.Context, src, tgt Problem, opts TransferOptions) (*Outcome, error) {
	return core.Run(ctx, src, tgt, opts)
}

// FaultProfile returns the default failure profile of a simulated
// machine (the five machines fail in distinct, machine-specific ways).
func FaultProfile(machineName string) FaultRates { return faults.Profile(machineName) }

// WithFaults wraps a problem with deterministic, seeded fault injection
// and a resilient evaluator, returning a Problem every search accepts.
// Failed evaluations appear in the Result as records with EvalFailed
// status; runs beyond opt.Timeout are censored at the cap.
func WithFaults(p Problem, rates FaultRates, seed uint64, opt ResilientOptions) Problem {
	return search.NewResilient(faults.Wrap(p, rates, seed), opt)
}

// WithResilience wraps any problem with retry and timeout budgets;
// retries and their exponential backoff are charged to the search
// clock.
func WithResilience(p Problem, opt ResilientOptions) Problem {
	return search.NewResilient(p, opt)
}

// EnsembleTune runs the OpenTuner-style technique ensemble (simulated
// annealing, genetic algorithm, pattern search, random) with bandit
// budget allocation — how the paper tunes HPL and the raytracer.
func EnsembleTune(ctx context.Context, p Problem, nmax int, seed uint64) (*Result, map[string]int) {
	return opentuner.New(opentuner.Options{NMax: nmax}, rng.New(seed)).Run(ctx, p)
}

// RunExperiment executes one of the paper's experiments by id
// (fig1, fig2, table1..table5, fig3..fig5); see ExperimentIDs.
func RunExperiment(ctx context.Context, id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	return experiments.Run(ctx, id, cfg)
}

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiments.IDs() }

// SaveDataset writes a dataset as CSV for the given space (reusable
// tuning data, the practical form of the paper's "lessons learned").
func SaveDataset(w io.Writer, ta Dataset, spc *Space) error { return ta.SaveCSV(w, spc) }

// LoadDataset reads a dataset saved by SaveDataset, validating it
// against the space.
func LoadDataset(r io.Reader, spc *Space) (Dataset, error) { return search.LoadCSV(r, spc) }

// SaveSurrogate serializes a fitted surrogate's forest as JSON.
func SaveSurrogate(w io.Writer, s *Surrogate) error { return s.Forest.Save(w) }

// LoadSurrogate reads a forest saved by SaveSurrogate and rebinds it to
// a space (which must have the same encoded feature count).
func LoadSurrogate(r io.Reader, spc *Space, source string) (*Surrogate, error) {
	f, err := forest.Load(r)
	if err != nil {
		return nil, err
	}
	return &Surrogate{Forest: f, Space: spc, Source: source}, nil
}
