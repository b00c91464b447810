// Command bench is the repository's end-to-end benchmark. It drives the
// system only through its public entry points — core.Run and the
// search algorithms in process, and the cmd/autotuned daemon over HTTP
// — times each layer from outside by wrapping the calls into it, and
// checks every output it measures.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload NAME -seed N -seconds S -trace 0|1 [-out FILE] [-trace-out FILE]
//	bench -workload NAME -seed N -write-golden
//	bench compare PARENT_DIR CHANGE_DIR
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones, measured untraced; with -trace 1
// they are the per-layer ones, from a traced run whose spans are
// written as JSONL to -trace-out. BENCHMARK.json declares both sets.
// Exit status: 0 when every check passed, 1 on a failed check or a
// run that could not be set up, 2 on bad usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"throughput_per_s", "ops/s"},
	{"evals_per_s", "evals/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named <module>.<what>. Counts
// and busy times are per op; means are per call.
var perLayer = []metricDef{
	{"sim.evaluate.calls", "count"},
	{"sim.evaluate.busy_s", "s"},
	{"sim.evaluate.mean_us", "us"},
	{"transform.apply.mean_us", "us"},
	{"forest.predict.rows", "count"},
	{"forest.predict.busy_s", "s"},
	{"forest.predict.mean_us_per_row", "us"},
	{"forest.fit.calls", "count"},
	{"forest.fit.busy_s", "s"},
	{"space.pool.busy_s", "s"},
	{"search.self_s", "s"},
	{"search.rs.self_s", "s"},
	{"search.replay.self_s", "s"},
	{"search.rsp.self_s", "s"},
	{"search.rsb.self_s", "s"},
	{"search.rspf.self_s", "s"},
	{"search.rsbf.self_s", "s"},
	{"search.sa.self_s", "s"},
	{"search.ga.self_s", "s"},
	{"search.ps.self_s", "s"},
	{"search.ensemble.self_s", "s"},
	{"search.rsp.evaluated_share", "ratio"},
	{"journal.append.mean_us", "us"},
	{"journal.bytes_per_session", "bytes"},
	{"evalcache.hit_ratio", "ratio"},
	{"evalcache.entries", "count"},
	{"evalcache.import_s", "s"},
	{"evalcache.artifact_bytes", "bytes"},
	{"http.submit.p50_ms", "ms"},
	{"http.poll.p50_ms", "ms"},
	{"http.poll.calls", "count"},
	{"http.result.p50_ms", "ms"},
	{"service.queue_wait.p50_ms", "ms"},
	{"service.run.p50_ms", "ms"},
	{"service.run.p90_ms", "ms"},
	{"core.unaccounted_s", "s"},
	{"core.unaccounted_share", "ratio"},
	{"bench.gen_late_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// params are the sizes a run uses. full is the benchmark; smoke keeps
// every code path but finishes in well under a second per workload.
type params struct {
	// transfer op: paper scale is NMax 100, pool 10 000, 100 trees.
	NMax, Pool, Trees int
	// tune op budget.
	TuneBudget int
	// service sessions: budget, how many the open loop sends (evenly
	// over openShare of the run) and how many the burst then sends.
	SessionBudget       int
	ColdOpen, ColdBurst int
	WarmOpen, WarmBurst int
	// WarmDistinct is how many distinct requests service-warm cycles.
	WarmDistinct int
	// FixedOps, when > 0, runs that many in-process ops regardless of
	// -seconds. Otherwise an untraced in-process run goes on past
	// -seconds until it has at least MinOps ops, so that its p90 has at
	// least ten samples beyond it.
	FixedOps, MinOps int
	// SetupReps is how many times the in-process workloads build their
	// problems, BootReps how many times the service workloads boot the
	// daemon; setup_s is the median. A fresh process's first ten or so
	// builds run at about twice the later ones' time while its heap
	// grows, so SetupReps is large enough for the median to lie well
	// past them.
	SetupReps, BootReps int
}

var scales = map[string]params{
	"full": {
		NMax: 100, Pool: 10000, Trees: 100,
		TuneBudget: 500,
		// Whole rounds of the 120 search kinds, so every seed sends the
		// same mix.
		SessionBudget: 100, ColdOpen: 120, ColdBurst: 120, WarmOpen: 240, WarmBurst: 240,
		WarmDistinct: 240,
		MinOps:       100,
		SetupReps:    200, BootReps: 5,
	},
	"smoke": {
		NMax: 10, Pool: 200, Trees: 8,
		TuneBudget:    40,
		SessionBudget: 10, ColdOpen: 8, ColdBurst: 8, WarmOpen: 16, WarmBurst: 16,
		WarmDistinct: 10,
		FixedOps:     3,
		SetupReps:    2, BootReps: 2,
	},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"transfer":     runTransfer,
	"tune":         runTune,
	"service-cold": runServiceCold,
	"service-warm": runServiceWarm,
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	p        params
	daemon   string // autotuned binary
	work     string // scratch directory for daemon state
	golden   *golden
}

// outcome is what a workload run returns: counts, metrics, the per-op
// digests, the failed checks, and (traced) the spans.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	digests           []string
	problems          []string
	spans             []span
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// metricJSON is one printed metric.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the printed result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// outFile is what -out writes: the result line plus what compare mode
// needs to pair runs.
type outFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    bool       `json:"trace"`
	Result   resultJSON `json:"result"`
}

func main() {
	// SIGINT/SIGTERM end the run early; the workloads still stop their
	// daemons and remove their state before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload    = fs.String("workload", "", "transfer | tune | service-cold | service-warm")
		seed        = fs.Uint64("seed", 2016, "workload seed: every input is drawn from it")
		seconds     = fs.Float64("seconds", 40, "how long the timed loop runs")
		traceFlag   = fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		traceOut    = fs.String("trace-out", "", "JSONL span file for -trace 1 (default .bench_build/trace-WORKLOAD.jsonl)")
		out         = fs.String("out", "", "also write the result, with workload and seed, to FILE (compare mode input)")
		scaleName   = fs.String("scale", "full", "full | smoke")
		daemon      = fs.String("daemon", ".bench_build/autotuned", "autotuned binary the service workloads start")
		work        = fs.String("work", ".bench_build", "directory for daemon state and traces")
		goldenPath  = fs.String("golden", "bench/golden.json", "pinned per-op digests")
		writeGolden = fs.Bool("write-golden", false, "pin this run's digests for its seed instead of checking them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	p, okScale := scales[*scaleName]
	if !ok || !okScale || fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need -workload %s, -scale full|smoke, -trace 0|1, -seconds > 0\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	g, err := loadGolden(*goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		p: p, daemon: *daemon, work: *work, golden: g,
	}
	res, err := runner(ctx, cfg)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}

	if *scaleName == "full" {
		if *writeGolden {
			if err := g.update(*goldenPath, *workload, *seed, res.digests); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "bench: pinned %d digests for %s seed %d\n", min(len(res.digests), goldenCap), *workload, *seed)
		} else {
			res.problems = append(res.problems, g.check(*workload, *seed, res.digests)...)
		}
	}
	if cfg.trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(*work, "trace-"+*workload+".jsonl")
		}
		if err := writeTrace(path, res.spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printSelfTimes(stderr, res.spans)
		fmt.Fprintf(stderr, "bench: %d spans written to %s\n", len(res.spans), path)
	}
	for _, msg := range res.problems {
		fmt.Fprintf(stderr, "bench: check failed: %s\n", msg)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultJSON{
		Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricJSON{},
	}
	for _, d := range defs {
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeOutFile(*out, outFile{Workload: *workload, Seed: *seed, Trace: cfg.trace, Result: line}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeOutFile(path string, of outFile) error {
	raw, err := json.MarshalIndent(of, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a
// process ("self" or a pid) from /proc, in MiB.
func peakRSSMB(pid string) float64 {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
