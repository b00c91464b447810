// Command autotune tunes one problem on one simulated machine with a
// chosen search algorithm.
//
// Usage:
//
//	autotune -problem LU -machine Sandybridge [-compiler gnu-4.4.7]
//	         [-threads 1] [-algo rs|sa|ga|ps|ensemble] [-nmax 100] [-seed 42]
//	         [-faults 0.3] [-retries 2] [-timeout 30] [-workers N]
//	         [-workers-addr unix:/tmp/tune.sock [-hedge-after 50ms]]
//	         [-journal DIR] [-resume DIR] [-throttle 50ms]
//	         [-trace FILE] [-progress] [-metrics] [-metrics-addr ADDR]
//	         [-flight FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// Problems: MM, ATAX, COR, LU (SPAPT kernels), HPL, RT (mini-apps), or
// -annotation FILE for a kernel in the annotation language.
//
// -faults F injects evaluation failures at total rate F (the machine's
// failure profile scaled so compile failures + crashes + hangs = F);
// -retries and -timeout set the resilient evaluator's budgets.
//
// Observability: -trace FILE streams every search event (evaluations,
// prune skips, retries, checkpoint writes, ...) as one JSON object per
// line; cmd/tracestat turns such a file into a per-phase time breakdown
// and convergence table. -progress draws a live best-so-far/evals-per-
// second line on stderr. -metrics prints an aggregated counter/histogram
// snapshot after the run; -metrics-addr serves the same snapshot live
// over HTTP (/metrics, with /healthz for probes). Remote-worker runs
// carry a deterministic trace id (algo-problem-seed) on every
// dispatched task, so cmd/tracestat can stitch the coordinator's trace
// with the workers' (brokerd -trace) into one causal timeline. -flight
// FILE keeps a fixed-size in-memory flight recorder of the last events
// and dumps it to FILE when the run fails. -cpuprofile/-memprofile write
// standard pprof profiles. Telemetry is observational only: it draws no
// randomness, so a traced run returns bit-identical results to an
// untraced one.
//
// -journal DIR records every evaluation in a crash-safe append-only log
// under DIR: each record is checksummed and fsync'd before the search
// observes it, so a crash, power loss, or signal at any instant leaves a
// journal that resumes bit-exactly. SIGINT or SIGTERM drains the current
// evaluation and exits with code 3, leaving the log as the resumable
// state; running again with -resume DIR (remaining settings are adopted
// from the journal) replays the search from its seed against the
// journaled outcomes, verifying each replayed request, and continues it
// to the same final result an uninterrupted run would have produced. A
// completed run also writes a checkpoint.json completion marker, so
// resuming it returns its result without replaying. -throttle D pauses
// D of wall time per evaluation — it changes nothing about the result,
// only makes fast simulated runs interruptible (demos, tests).
//
// -workers-addr ADDR serves evaluations to remote worker processes
// (cmd/brokerd) connecting at ADDR (unix:/path or [tcp:]host:port)
// through a worker pool in which each evaluation dispatches itself:
// lease-based task claims with heartbeat failure detection re-dispatch
// the work of dead or partitioned workers, capped-backoff retries and
// optional hedged re-dispatch (-hedge-after D) recover the rest, and an
// evaluation degrades inline once its retries find no worker. Workers
// evaluate bare problems: -faults, -retries, -timeout and -throttle act
// in this process, above the pool, so remote evaluations are
// bit-identical to local ones. Like -workers it is results-invariant:
// the pool moves evaluations between processes but never changes what
// they return. With -journal, remote runs also journal the evaluation
// in flight, and the journal resumes with or without remote workers.
//
// -workers N caps the OS threads the Go runtime schedules goroutines on
// (GOMAXPROCS; 0 keeps the runtime default). The search algorithms
// evaluate configurations strictly in sequence — parallelism never
// reorders evaluations or redistributes random streams — so -workers
// changes wall time only and composes with -journal/-resume: a journal
// written under one worker count resumes bit-exactly under any other.
//
// Exit codes: 0 success, 1 runtime failure, 2 bad usage (an invalid
// evaluation spec — unknown problem, machine, compiler, or algorithm,
// a compiler the machine lacks, an out-of-range setting — or a
// mismatched resume), 3 interrupted by SIGINT/SIGTERM (with -journal
// the journal is left resumable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"

	"repro/internal/broker/remote"
	"repro/internal/codegen"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
	"repro/internal/spec"
	"repro/internal/transform"
)

const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitInterrupted = 3
)

// warnf is the single diagnostic channel: every stderr message goes
// through it, prefixed with the program name.
func warnf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "autotune: "+format+"\n", a...)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		problem     = flag.String("problem", "LU", "MM|ATAX|COR|LU|HPL|RT")
		annotation  = flag.String("annotation", "", "path to an annotated kernel file (overrides -problem)")
		machineN    = flag.String("machine", "Sandybridge", "target machine")
		compilerN   = flag.String("compiler", "gnu-4.4.7", "compiler")
		threads     = flag.Int("threads", 1, "OpenMP threads")
		algo        = flag.String("algo", "rs", "rs|sa|ga|ps|ensemble")
		nmax        = flag.Int("nmax", 100, "evaluation budget")
		seed        = flag.Uint64("seed", 42, "random seed")
		faultRate   = flag.Float64("faults", 0, "total injected failure rate in [0,1) (0 disables)")
		retries     = flag.Int("retries", 2, "max retries per transient evaluation failure")
		timeout     = flag.Float64("timeout", 0, "per-evaluation run-time cap in seconds (0 disables censoring)")
		journalDir  = flag.String("journal", "", "crash-safe journal directory (created or resumed)")
		resumeDir   = flag.String("resume", "", "resume an interrupted run from its journal directory")
		throttle    = flag.Duration("throttle", 0, "wall-clock pause per evaluation (makes simulated runs interruptible)")
		workers     = flag.Int("workers", 0, "cap on OS threads for goroutine scheduling (0 = runtime default; results identical for any value)")
		workAddr    = flag.String("workers-addr", "", "serve evaluations to remote workers (cmd/brokerd) listening on ADDR: unix:/path or [tcp:]host:port (results identical either way)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "hedged re-dispatch delay for straggling remote evaluations (0 disables; requires -workers-addr)")
		verbose     = flag.Bool("v", false, "print every evaluation")
		emit        = flag.Bool("emit", false, "print the best variant as C code (kernel problems)")
		traceFile   = flag.String("trace", "", "write a JSONL event trace to FILE (read with cmd/tracestat)")
		progress    = flag.Bool("progress", false, "draw a live best-so-far/evals-per-sec line on stderr")
		metrics     = flag.Bool("metrics", false, "print an aggregated metrics snapshot after the run")
		flightFile  = flag.String("flight", "", "dump the in-memory flight recorder (last events, spans included) to FILE when the run fails")
		metricsAddr = flag.String("metrics-addr", "", "serve the live telemetry snapshot over HTTP on ADDR (/metrics and /healthz)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile to FILE")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile to FILE")
	)
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *resumeDir != "" {
		if *journalDir != "" && *journalDir != *resumeDir {
			warnf("-journal and -resume name different directories")
			return exitUsage
		}
		*journalDir = *resumeDir
		if !journal.Exists(*resumeDir) {
			warnf("%s holds no journal to resume", *resumeDir)
			return exitUsage
		}
		m, err := journal.ReadMeta(*resumeDir)
		if err != nil {
			warnf("%v", err)
			return exitUsage
		}
		// Adopt the journaled run's settings for every flag the user did
		// not set explicitly; explicit conflicts surface as a meta
		// mismatch below rather than silently forking the run.
		if err := adoptMeta(m, explicit, map[string]any{
			"problem": problem, "annotation": annotation,
			"machine": machineN, "compiler": compilerN,
			"threads": threads, "algo": algo,
			"faults": faultRate, "retries": retries, "timeout": timeout,
		}, nmax, seed); err != nil {
			warnf("%v", err)
			return exitUsage
		}
	}

	if *workers < 0 {
		warnf("-workers must be >= 0, got %d", *workers)
		return exitUsage
	}
	if *workers > 0 {
		// Scheduling-only: evaluation order and random streams are fixed by
		// the algorithms themselves, so this never changes a result (and is
		// therefore not pinned into the journal meta).
		runtime.GOMAXPROCS(*workers)
	}

	sp := spec.Spec{
		Problem: *problem, Annotation: *annotation,
		Machine: *machineN, Compiler: *compilerN, Threads: *threads,
		Faults: *faultRate, Retries: *retries, Timeout: *timeout,
		Seed: *seed, Algorithm: *algo, Budget: *nmax,
	}
	base, err := sp.Resolve()
	if err != nil {
		warnf("%v", err)
		return exitUsage
	}
	// SIGINT/SIGTERM cancel the context; searches drain the evaluation in
	// flight and stop at the next boundary, so a journaled run always
	// exits with every completed evaluation durable in its log.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The remote worker pool wraps the bare problem, and the fault-aware
	// layers (injected failures, retry/timeout budgets) wrap the pool, so
	// workers evaluate only what the spec names and the injector rolls
	// under the bare name wherever an evaluation runs. Like -workers the
	// pool is results-invariant (and therefore absent from the journal
	// meta): it only changes where evaluations execute.
	pool, err := remote.OpenPool(*workAddr, *hedgeAfter)
	if err != nil {
		warnf("%v", err)
		if errors.As(err, new(remote.SettingError)) {
			return exitUsage
		}
		return exitError
	}
	if pool != nil {
		defer pool.Close()
		warnf("serving evaluations to remote workers on %s (start cmd/brokerd with -connect %s)", *workAddr, *workAddr)
	}
	ctx = remote.Into(ctx, pool)
	p, inj := sp.Build(remote.Wrap(ctx, base))
	if *throttle > 0 {
		p = spec.Throttled{Problem: p, Wait: *throttle}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			warnf("%v", err)
			return exitError
		}
		defer func() {
			if err := f.Close(); err != nil {
				warnf("cpuprofile: %v", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			warnf("cpuprofile: %v", err)
			return exitError
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				warnf("%v", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				warnf("memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				warnf("memprofile: %v", err)
			}
		}()
	}

	// Telemetry: the requested sinks composed into the tracer every
	// search layer reads from the context. No outputs -> nil tracer ->
	// zero overhead on the hot path.
	ctx, tel, err := obs.Open(ctx, obs.Outputs{
		Trace: *traceFile, Metrics: *metrics, MetricsAddr: *metricsAddr,
		Flight: *flightFile, Progress: *progress,
	})
	if err != nil {
		warnf("%v", err)
		return exitError
	}
	if *metricsAddr != "" {
		warnf("metrics at http://%s/metrics", tel.MetricsAddr())
	}
	// The run's trace context: a deterministic id derived from the run
	// coordinates, so coordinator and worker traces of one run stitch by
	// the same key (cmd/tracestat). Spans are only emitted on remote-pool
	// paths, and only when a sink is attached.
	ctx = obs.WithTrace(ctx, obs.TraceContext{
		TraceID: fmt.Sprintf("%s-%s-%d", sp.Algorithm, p.Name(), sp.Seed),
		SpanID:  obs.RootSpanID,
	})
	if inj != nil {
		for _, w := range inj.Warnings() {
			warnf("faults: %s", w)
			obs.FromContext(ctx).Warn(sp.Algorithm, "faults: "+w)
		}
	}

	var (
		res   *search.Result
		info  *journal.RunInfo
		pulls map[string]int
	)
	if *journalDir != "" {
		// Remote runs journal in-flight work, so a SIGKILL mid-
		// evaluation still resumes cleanly (and the resume may drop the
		// remote workers entirely).
		wopt := journal.WrapOptions{TrackInFlight: pool != nil}
		res, info, err = sp.RunJournaled(ctx, *journalDir, p, wopt, &pulls)
	} else {
		var drive func(context.Context, search.Problem) *search.Result
		if drive, err = sp.Driver(&pulls); err == nil {
			res = drive(ctx, p)
		}
	}
	// Read the interruption state before stopSignals: the stop function
	// cancels the context itself, which must not read as a signal.
	interrupted := ctx.Err() != nil && (info == nil || !info.Done)
	stopSignals()
	// A failed run (an error, or no successful evaluation) persists its
	// flight recording: the last events (spans included) leading up to
	// the failure.
	failed := err != nil
	if !failed && !interrupted {
		_, _, ok := res.Best()
		failed = !ok
	}
	if cerr := tel.Close(failed); cerr != nil {
		warnf("%v", cerr)
	} else if failed && *flightFile != "" {
		warnf("flight recording dumped to %s", *flightFile)
	}
	if err != nil {
		warnf("%v", err)
		if errors.Is(err, journal.ErrMetaMismatch) {
			return exitUsage
		}
		return exitError
	}

	if info != nil && info.Resumed {
		fmt.Printf("resumed:     %d journaled evaluations\n", info.Prior)
	}
	if pulls != nil {
		fmt.Printf("technique pulls: %v\n", pulls)
	}

	if *verbose {
		for i, rec := range res.Records {
			fmt.Printf("%3d  run=%9.4fs  clock=%10.2fs  status=%-10s %s\n",
				i+1, rec.RunTime, rec.Elapsed, rec.StatusLabel(), p.Space().String(rec.Config))
		}
	}
	best, idx, ok := res.Best()
	if ok {
		fmt.Printf("problem:     %s\n", p.Name())
		fmt.Printf("algorithm:   %s, %d evaluations\n", res.Algorithm, len(res.Records))
		if counts := res.Counts(); counts.Failed > 0 || counts.Censored > 0 || counts.Retried > 0 {
			fmt.Printf("statuses:    %d ok, %d censored, %d failed, %d retried (%d extra attempts)\n",
				counts.OK, counts.Censored, counts.Failed, counts.Retried, counts.Retries)
		}
		fmt.Printf("best config: %s\n", p.Space().String(best.Config))
		fmt.Printf("best run:    %.4f s (found after %d evaluations, %.1f s of search)\n",
			best.RunTime, idx+1, res.Records[idx].Elapsed)
		fmt.Printf("search time: %.1f s total\n", res.Elapsed())
	}
	if reg := tel.Registry(); reg != nil {
		fmt.Println()
		fmt.Print(reg.Snapshot())
	}

	if interrupted {
		warnf("interrupted after %d evaluations", len(res.Records))
		if *journalDir != "" {
			warnf("journal saved; continue with: autotune -resume %s", *journalDir)
		}
		return exitInterrupted
	}
	if !ok {
		warnf("no successful evaluations (every configuration failed)")
		return exitError
	}

	if *emit {
		if err := emitBest(base, best.Config); err != nil {
			warnf("emit: %v", err)
			return exitError
		}
	}
	return exitOK
}

// adoptMeta fills every flag the user left unset from the journaled
// run's meta, so `autotune -resume DIR` alone continues the run.
func adoptMeta(m journal.Meta, explicit map[string]bool, flags map[string]any,
	nmax *int, seed *uint64) error {

	if !explicit["nmax"] {
		*nmax = m.NMax
	}
	if !explicit["seed"] {
		*seed = m.Seed
	}
	for name, dst := range flags {
		v, ok := m.Extra[name]
		if explicit[name] || !ok {
			continue
		}
		var err error
		switch d := dst.(type) {
		case *string:
			*d = v
		case *int:
			*d, err = strconv.Atoi(v)
		case *float64:
			*d, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return fmt.Errorf("journal meta %s=%q: %w", name, v, err)
		}
	}
	return nil
}

// emitBest prints the winning configuration's generated C code when the
// base problem is a kernel (mini-apps have no code to emit).
func emitBest(base search.Problem, c space.Config) error {
	kp, ok := base.(*kernels.Problem)
	if !ok {
		return fmt.Errorf("-emit only applies to kernel problems")
	}
	k := kp.Kernel
	specs := k.SpecsFor(c)
	fmt.Println()
	fmt.Print(codegen.Preamble())
	for ni, nest := range k.Nests {
		variant, err := transform.Apply(nest, specs[ni])
		if err != nil {
			return err
		}
		src, err := codegen.Emit(variant, codegen.Options{
			OpenMP:        k.OMPEnabled(c) && kp.Target.Threads > 1,
			VectorHint:    specs[ni].VectorHint,
			ScalarReplace: specs[ni].ScalarReplace,
			FuncName:      fmt.Sprintf("%s_variant_%d", k.Name, ni),
		})
		if err != nil {
			return err
		}
		fmt.Println(src)
	}
	return nil
}
