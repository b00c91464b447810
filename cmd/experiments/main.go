// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|fig1,fig3,table4] [-seed N] [-quick]
//	            [-nmax N] [-pool N] [-trees N] [-workers N] [-outdir DIR]
//	            [-values] [-metrics] [-metrics-addr ADDR] [-resume DIR]
//	            [-workers-addr unix:/tmp/exp.sock [-hedge-after 50ms]]
//
// Each experiment prints its report to stdout. With -outdir, the tables
// are additionally written as CSV, the named values as <id>-values.txt,
// and each experiment's telemetry metrics snapshot (evaluation counts by
// status, prune skips, model latency) as <id>-metrics.txt; every file is
// written to a temporary name and atomically renamed, so a crash never
// leaves a half-written report. -metrics also prints the snapshot to
// stdout after each report. -metrics-addr serves a live cross-
// experiment aggregate of the same counters over HTTP (/metrics, with
// /healthz for probes) for the duration of the sweep.
//
// -workers N bounds the worker goroutines each experiment spreads its
// independent cells over (0, the default, uses one per CPU). Every cell
// derives its randomness from its own seed, so reports are bit-identical
// for every worker count — -workers trades wall time only.
//
// -workers-addr ADDR serves every evaluation to remote worker processes
// (cmd/brokerd) connecting at ADDR (unix:/path or [tcp:]host:port)
// through one worker pool shared by the whole experiment; each
// evaluation leases its own task, with optional hedged re-dispatch of
// stragglers (-hedge-after D). Every experiment builds its problems
// through the evaluation spec, so every evaluation reaches the workers,
// except ext-inputsize's off-size MM targets: no worker can name them,
// and they run inline. Reports are bit-identical with or without remote
// workers.
//
// With -outdir the command also keeps a progress file (progress.txt)
// naming each completed experiment. SIGINT or SIGTERM stops the sweep at
// the next experiment boundary and exits with code 3; -resume DIR
// (implies -outdir DIR) skips the experiments the progress file records,
// after checking it was written under the same configuration.
//
// Exit codes: 0 success, 1 runtime failure, 2 bad usage, 3 interrupted
// (progress saved when -outdir/-resume is set).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() { os.Exit(run()) }

func run() int {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		seed    = flag.Uint64("seed", 2016, "random seed")
		quick   = flag.Bool("quick", false, "reduced scale (for smoke runs)")
		nmax    = flag.Int("nmax", 0, "evaluation budget (default: paper's 100)")
		pool    = flag.Int("pool", 0, "configuration pool size (default: paper's 10000)")
		trees   = flag.Int("trees", 0, "surrogate forest size (default 100)")
		outdir  = flag.String("outdir", "", "directory for CSV/value exports")
		values  = flag.Bool("values", false, "also print the named scalar values")
		metrics = flag.Bool("metrics", false, "also print each experiment's telemetry metrics snapshot")
		workers = flag.Int("workers", 0, "worker goroutines per experiment (0 = one per CPU; results identical for any value)")
		wrkAddr = flag.String("workers-addr", "", "serve evaluations to remote workers (cmd/brokerd) listening on ADDR: unix:/path or [tcp:]host:port (results identical either way)")
		hedge   = flag.Duration("hedge-after", 0, "hedged re-dispatch delay for straggling remote evaluations (0 disables; requires -workers-addr)")
		resume  = flag.String("resume", "", "resume an interrupted sweep from DIR's progress file (implies -outdir DIR)")
		mAddr   = flag.String("metrics-addr", "", "serve a live cross-experiment telemetry snapshot over HTTP on ADDR (/metrics and /healthz)")
	)
	flag.Parse()

	if *hedge < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -hedge-after must be >= 0, got %v\n", *hedge)
		return exitUsage
	}
	if *hedge > 0 && *wrkAddr == "" {
		fmt.Fprintln(os.Stderr, "experiments: -hedge-after requires -workers-addr (where cmd/brokerd workers connect)")
		return exitUsage
	}

	if *resume != "" {
		if *outdir != "" && *outdir != *resume {
			fmt.Fprintln(os.Stderr, "experiments: -outdir and -resume name different directories")
			return exitUsage
		}
		*outdir = *resume
	}

	cfg := experiments.Config{Seed: *seed, NMax: *nmax, PoolSize: *pool, Trees: *trees}
	if *quick {
		cfg = experiments.Quick(*seed)
	}
	cfg.Workers = *workers
	cfg.RemoteWorkersAddr = *wrkAddr
	cfg.BrokerHedgeAfter = *hedge
	// -workers and the remote-worker flags are deliberately absent from
	// the configuration line: reports are workers- and pool-invariant
	// (asserted by TestParallelMatchesSerial and TestBrokerMatchesDirect),
	// so a sweep may be resumed under a different worker count or with
	// or without remote workers without forking the results.
	cfgLine := fmt.Sprintf("# cfg seed=%d quick=%v nmax=%d pool=%d trees=%d",
		*seed, *quick, *nmax, *pool, *trees)

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	completed, err := loadProgress(*outdir, cfgLine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return exitUsage
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The live metrics endpoint aggregates across the whole sweep: each
	// experiment composes the context tracer's sink into its own, so the
	// served registry sums every experiment run so far.
	if *mAddr != "" {
		reg := obs.NewRegistry()
		srv, err := obs.ServeMetrics(*mAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics-addr: %v\n", err)
			return exitError
		}
		fmt.Fprintf(os.Stderr, "experiments: metrics at http://%s/metrics\n", srv.Addr())
		// Best-effort teardown: the process is exiting either way.
		defer func() { _ = srv.Close() }()
		ctx = obs.WithTracer(ctx, obs.New(obs.NewMetricsSink(reg)))
	}

	interrupted := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if completed[id] {
			fmt.Printf("[%s already completed, skipped]\n\n", id)
			continue
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		start := time.Now()
		rep, err := experiments.Run(ctx, id, cfg)
		if err != nil {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return exitError
		}
		fmt.Println(rep.Text)
		if *values {
			fmt.Println("values:")
			fmt.Print(experiments.Summary(rep))
		}
		if *metrics && rep.Metrics != "" {
			fmt.Println("metrics:")
			fmt.Print(rep.Metrics)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))

		if *outdir != "" {
			if err := export(*outdir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: export: %v\n", err)
				return exitError
			}
			completed[id] = true
			if err := writeProgress(*outdir, cfgLine, ids, completed); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: progress: %v\n", err)
				return exitError
			}
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "experiments: interrupted")
		if *outdir != "" {
			fmt.Fprintf(os.Stderr, "experiments: progress saved; continue with: experiments -resume %s\n", *outdir)
		}
		return exitInterrupted
	}
	return exitOK
}

const progressFile = "progress.txt"

// loadProgress reads dir's progress file: the configuration line it was
// written under (refusing a resume under a different one) followed by
// one completed experiment id per line.
func loadProgress(dir, cfgLine string) (map[string]bool, error) {
	completed := map[string]bool{}
	if dir == "" {
		return completed, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, progressFile))
	if os.IsNotExist(err) {
		return completed, nil
	}
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] != cfgLine {
		return nil, fmt.Errorf("progress file %s was written under %q, run is %q; pass matching flags or remove it",
			filepath.Join(dir, progressFile), strings.TrimPrefix(lines[0], "# cfg "), strings.TrimPrefix(cfgLine, "# cfg "))
	}
	for _, line := range lines[1:] {
		if line = strings.TrimSpace(line); line != "" {
			completed[line] = true
		}
	}
	return completed, nil
}

// writeProgress atomically replaces the progress file, listing completed
// ids in sweep order.
func writeProgress(dir, cfgLine string, ids []string, completed map[string]bool) error {
	var b strings.Builder
	b.WriteString(cfgLine)
	b.WriteByte('\n')
	for _, id := range ids {
		if id = strings.TrimSpace(id); completed[id] {
			b.WriteString(id)
			b.WriteByte('\n')
		}
	}
	return writeFileAtomic(filepath.Join(dir, progressFile), []byte(b.String()))
}

func export(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, rep.ID+".txt"), []byte(rep.Text)); err != nil {
		return err
	}
	if len(rep.Values) > 0 {
		path := filepath.Join(dir, rep.ID+"-values.txt")
		if err := writeFileAtomic(path, []byte(experiments.Summary(rep))); err != nil {
			return err
		}
	}
	if rep.Metrics != "" {
		path := filepath.Join(dir, rep.ID+"-metrics.txt")
		if err := writeFileAtomic(path, []byte(rep.Metrics)); err != nil {
			return err
		}
	}
	for i, tb := range rep.Tables {
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-table%d.csv", rep.ID, i))
		if err := writeFileAtomic(path, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes data to a temporary file in path's directory,
// fsyncs it, and renames it over path: readers see the old report or the
// new one, never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
