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

	"repro/internal/broker/remote"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
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
	// one shared worker pool to remote worker processes (cmd/brokerd)
	// connecting at this address (unix:/path or [tcp:]host:port): every
	// problem problemFor builds, which is all of them but ext-inputsize's
	// off-size targets (no worker can name those; they run inline).
	// Reports are pool-invariant for the same reason they are
	// workers-invariant: the pool moves evaluations between processes
	// without changing what they return (asserted by
	// TestBrokerMatchesDirect, which also requires every experiment that
	// evaluates anything to lease work to the workers).
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
	// One worker pool serves every cell of the experiment; problemFor
	// wraps each problem it builds with whatever pool rides the context.
	if cfg.RemoteWorkersAddr != "" {
		ln, err := remote.Listen(cfg.RemoteWorkersAddr)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: workers-addr: %w", id, err)
		}
		pool := remote.NewPool(remote.PoolOptions{HedgeAfter: cfg.BrokerHedgeAfter})
		defer pool.Close()
		pool.Serve(ln)
		ctx = remote.Into(ctx, pool)
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

// The serial targets most experiments run on: one thread under the GNU
// compiler, Spec's defaults.
var (
	westmere    = spec.Spec{Machine: machine.Westmere.Name}
	sandybridge = spec.Spec{Machine: machine.Sandybridge.Name}
)

// problemFor is the experiments' one problem builder: workload name (a
// kernel or a mini-app) on the target s describes, built by spec. A
// multi-threaded target holds the OpenMP pragmas fixed outside the
// search, as the paper's OpenMP experiments do (Figure 5, Table V).
// When a worker pool rides the context (Config.RemoteWorkersAddr), the
// problem's evaluations run through it.
func problemFor(ctx context.Context, name string, s spec.Spec) (search.Problem, error) {
	s.Problem, s.ForceOMP = name, s.Threads > 1
	p, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	return remote.Wrap(ctx, p), nil
}

// pair builds workload wl on the src and tgt targets through problemFor.
func pair(ctx context.Context, wl string, src, tgt spec.Spec) (sp, tp search.Problem, err error) {
	if sp, err = problemFor(ctx, wl, src); err != nil {
		return nil, nil, err
	}
	tp, err = problemFor(ctx, wl, tgt)
	return sp, tp, err
}

// transfer runs one transfer cell: workload wl built by problemFor on
// the src and tgt targets, then core.Run under cfg with the cell's own
// seed, cfg.Seed ^ Hash64(tag). A non-nil tgtKernel (ext-inputsize's
// off-size MM) replaces wl on the target: Spec.BaseFor builds it bare,
// and it evaluates inline, because no worker can name it.
func transfer(ctx context.Context, cfg Config, tag, wl string, src, tgt spec.Spec,
	tgtKernel *kernels.Kernel) (*core.Outcome, error) {

	sp, err := problemFor(ctx, wl, src)
	if err != nil {
		return nil, err
	}
	var tp search.Problem
	if tgtKernel != nil {
		tgt.Normalize()
		tp, err = tgt.BaseFor(tgtKernel)
	} else {
		tp, err = problemFor(ctx, wl, tgt)
	}
	if err != nil {
		return nil, err
	}
	opts := transferOpts(cfg)
	opts.Seed = cfg.Seed ^ rng.Hash64(tag)
	return core.Run(ctx, sp, tp, opts)
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
