// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment
// index) and renders each as text tables/plots plus named scalar values
// that the tests and EXPERIMENTS.md assert against.
//
//	fig1    LU run-time correlation, Westmere vs Sandybridge
//	fig2    decision tree on MM data from Sandybridge
//	table1  Orio transformations and ranges
//	table2  machine descriptions
//	table3  kernel spaces
//	fig3    Westmere -> Sandybridge (ATAX, LU, HPL, RT)
//	fig4    Sandybridge -> Power 7 (ATAX, LU, HPL, RT)
//	fig5    Sandybridge -> Xeon Phi, Intel compiler (MM, LU, COR)
//	table4  source x target grid of RSb speedups (GNU compiler)
//	table5  Xeon Phi grid of RSb speedups (Intel compiler)
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/broker/remote"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/spec"
	"repro/internal/tabulate"
)

// Config scales an experiment run. The zero value plus WithDefaults gives
// the paper's settings.
type Config struct {
	// Seed drives all random streams (default 2016, the publication year).
	Seed uint64
	// NMax is the evaluation budget (paper: 100).
	NMax int
	// PoolSize is the configuration pool N (paper: 10,000).
	PoolSize int
	// DeltaPct is RSp's cutoff quantile (paper: 20).
	DeltaPct float64
	// Trees is the surrogate forest size (default 100).
	Trees int
	// CorrelationSamples is the sample count for fig1 (paper: 200).
	CorrelationSamples int
	// Workers bounds how many experiment cells run concurrently (<= 0:
	// one per CPU). Reports are workers-invariant — every cell draws from
	// rng streams derived from its own seed, so parallel output is
	// bit-identical to serial output (asserted by TestParallelMatchesSerial).
	Workers int
	// RemoteWorkersAddr, when non-empty, serves every evaluation through
	// one shared broker to remote worker processes (cmd/brokerd)
	// connecting at this address (unix:/path or [tcp:]host:port). Reports
	// are broker-invariant for the same reason they are
	// workers-invariant: the broker moves evaluations between processes
	// without changing what they return (asserted by
	// TestBrokerMatchesDirect).
	RemoteWorkersAddr string
	// BrokerHedgeAfter enables hedged re-dispatch of straggling remote
	// evaluations after this delay (0 disables; needs RemoteWorkersAddr).
	BrokerHedgeAfter time.Duration
}

// WithDefaults fills unset fields with the paper's settings.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2016
	}
	if c.NMax <= 0 {
		c.NMax = 100
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 10000
	}
	if c.DeltaPct <= 0 {
		c.DeltaPct = 20
	}
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.CorrelationSamples <= 0 {
		c.CorrelationSamples = 200
	}
	return c
}

// Quick returns a reduced-scale configuration for tests.
func Quick(seed uint64) Config {
	return Config{
		Seed: seed, NMax: 30, PoolSize: 800, DeltaPct: 20, Trees: 30,
		CorrelationSamples: 60,
	}
}

// Report is the output of one experiment.
type Report struct {
	ID    string
	Title string
	// Text is the full human-readable rendering.
	Text string
	// Tables holds the structured tables (for CSV export).
	Tables []*tabulate.Table
	// Values holds named scalar results, e.g. "pearson" or
	// "LU/Westmere->Sandybridge/RSb/search".
	Values map[string]float64
	// Metrics is the telemetry snapshot aggregated over every search the
	// experiment ran (evaluation counts by status, skips, model latency).
	// It is kept out of Text: metrics include wall-clock observations,
	// and Text must stay deterministic for golden assertions.
	Metrics string
}

type runner func(context.Context, Config) (*Report, error)

type registryEntry struct {
	title string
	run   runner
}

var registry = map[string]registryEntry{
	"fig1":   {"Figure 1: LU run-time correlation, Westmere vs Sandybridge", runFig1},
	"fig2":   {"Figure 2: decision tree from MM data on Sandybridge", runFig2},
	"table1": {"Table I: Orio transformations considered", runTable1},
	"table2": {"Table II: architecture set considered", runTable2},
	"table3": {"Table III: collection of test kernels", runTable3},
	"fig3":   {"Figure 3: Westmere speeding the search on Sandybridge", runFig3},
	"fig4":   {"Figure 4: Sandybridge speeding the search on Power 7", runFig4},
	"fig5":   {"Figure 5: Sandybridge speeding the search on Xeon Phi (icc)", runFig5},
	"table4": {"Table IV: speedups for the biased model variant (gcc)", runTable4},
	"table5": {"Table V: speedups for the biased model variant, Xeon Phi (icc)", runTable5},
}

// IDs lists the experiment identifiers in presentation order: the
// paper's figures and tables first, then the future-work extensions.
func IDs() []string {
	return []string{"fig1", "fig2", "table1", "table2", "table3",
		"fig3", "fig4", "fig5", "table4", "table5",
		"ext-inputsize", "ext-algos", "ext-surrogates", "ext-replicates",
		"ext-robustness"}
}

// Run executes one experiment by id. Cancelling ctx drains the
// experiment's searches between evaluations and surfaces the context
// error instead of a partial report (a half-run experiment's numbers
// must never be mistaken for results).
func Run(ctx context.Context, id string, cfg Config) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	// Every experiment aggregates telemetry into its own registry. Any
	// tracer already on ctx (e.g. a -trace JSONL sink) keeps receiving
	// events via fan-out.
	reg := obs.NewRegistry()
	sink := obs.Multi(obs.NewMetricsSink(reg), obs.FromContext(ctx).Sink())
	ctx = obs.WithTracer(ctx, obs.New(sink))
	cfg = cfg.WithDefaults()
	// One broker serves every cell of the experiment; problemFor wraps
	// each problem it builds with whatever broker rides the context.
	if cfg.RemoteWorkersAddr != "" {
		b := broker.New(broker.Options{HedgeAfter: cfg.BrokerHedgeAfter})
		defer b.Close()
		ln, err := remote.Listen(cfg.RemoteWorkersAddr)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: workers-addr: %w", id, err)
		}
		pool := remote.NewPool(b, remote.PoolOptions{})
		defer pool.Close()
		pool.Serve(ln)
		ctx = broker.Into(ctx, b)
	}
	rep, err := e.run(ctx, cfg)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("experiments: %s interrupted: %w", id, cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	rep.ID = id
	rep.Title = e.title
	rep.Text = e.title + "\n" + strings.Repeat("=", len(e.title)) + "\n\n" + rep.Text
	rep.Metrics = reg.Snapshot()
	return rep, nil
}

// problemFor builds the search problem for a named workload on a machine.
// Kernels run under the given compiler and thread count; the mini-apps
// (HPL, RT) are compiler-independent at this level, as in the paper's
// OpenTuner setup. When a broker rides the context
// (Config.RemoteWorkersAddr), the problem is wrapped so its evaluations
// run through it.
func problemFor(ctx context.Context, name string, m machine.Machine, comp machine.Compiler, threads int) (search.Problem, error) {
	// The OpenMP-based experiments (Figure 5, Table V) hold the pragmas
	// fixed outside the search.
	p, err := spec.Spec{
		Problem: name, Machine: m.Name, Compiler: comp.Name, Threads: threads, ForceOMP: threads > 1,
	}.Base()
	if err != nil {
		return nil, err
	}
	return broker.Wrap(ctx, p), nil
}

// transferOpts converts a Config into core options.
func transferOpts(cfg Config) core.Options {
	return core.Options{
		NMax:     cfg.NMax,
		PoolSize: cfg.PoolSize,
		DeltaPct: cfg.DeltaPct,
		Forest:   forest.Params{Trees: cfg.Trees, Workers: cfg.Workers},
		Seed:     cfg.Seed,
	}
}

// sortedKeys returns the keys of the values map in sorted order (for
// deterministic rendering).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
