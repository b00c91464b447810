// Command brokerd is a remote evaluation worker: it connects to a
// driver (cmd/autotune or cmd/experiments started with
// -workers-addr ADDR), receives broker tasks over the wire, evaluates
// them locally, and streams the results back under a heartbeat.
//
// Usage:
//
//	brokerd -connect unix:/tmp/tune.sock [-label w1] [-heartbeat 25ms]
//	        [-machine Sandybridge] [-compiler gnu-4.4.7] [-threads 1]
//	        [-faults 0.3] [-retries 2] [-timeout 30] [-seed 42]
//	        [-annotation FILE] [-metrics] [-trace FILE] [-flight FILE]
//	        [-metrics-addr ADDR]
//
// The evaluation-stack flags (-machine, -compiler, -threads,
// -annotation, -faults, -retries, -timeout, -seed) fill an evaluation
// spec (internal/spec) — the same one cmd/autotune, cmd/autotuned, and
// cmd/experiments build their stacks from. Each task names its problem,
// and the worker sets that name on its spec and builds the stack the
// driver would have built inline: the simulated kernel or mini-app, plus
// the fault injector and resilient retry/timeout budgets when
// -faults/-timeout are set. Task names are qualified by target
// ("LU@Sandybridge/gnu-4.4.7/t1", "MM@XeonPhi/intel-15.0.1/t60+omp"),
// so a worker whose spec builds a different problem under that name
// refuses the task loudly instead of computing on the wrong simulated
// target. The fault settings are not in the name: -faults, -retries,
// -timeout, and -seed must match the driver's for remote results to be
// bit-identical to inline ones.
//
// brokerd reconnects with capped exponential backoff when the driver
// restarts or the network drops, and exits cleanly when the driver
// says goodbye. -metrics prints the worker's local telemetry snapshot
// (evaluations by status, faults, retries) on exit; worker-side
// telemetry is local to this process, not forwarded to the driver.
// -trace appends the worker's JSONL trace — including worker-eval
// spans keyed by the trace id each task carries on the wire — so
// tracestat can stitch it with the driver's trace into one causal
// timeline. -flight keeps a fixed-size in-memory flight recorder and
// dumps it to FILE when the worker exits abnormally. -metrics-addr
// serves the live snapshot over HTTP (/metrics, /healthz).
//
// Exit codes: 0 clean shutdown (driver said bye, or SIGINT/SIGTERM),
// 1 runtime failure (reconnect budget exhausted), 2 bad usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/broker/remote"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/spec"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func warnf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "brokerd: "+format+"\n", a...)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		connect     = flag.String("connect", "", "driver address to connect to: unix:/path or [tcp:]host:port (required)")
		label       = flag.String("label", "", "worker name in telemetry and driver logs (default: brokerd-<pid>)")
		heartbeat   = flag.Duration("heartbeat", 0, "heartbeat period (0 = transport default)")
		machineN    = flag.String("machine", "Sandybridge", "target machine (must match the driver)")
		compilerN   = flag.String("compiler", "gnu-4.4.7", "compiler (must match the driver)")
		threads     = flag.Int("threads", 1, "OpenMP threads (must match the driver)")
		annotation  = flag.String("annotation", "", "path to an annotated kernel file, served under its parsed name")
		faultRate   = flag.Float64("faults", 0, "total injected failure rate in [0,1) (must match the driver)")
		retries     = flag.Int("retries", 2, "max retries per transient evaluation failure (must match the driver)")
		timeout     = flag.Float64("timeout", 0, "per-evaluation run-time cap in seconds (must match the driver)")
		seed        = flag.Uint64("seed", 42, "random seed for the fault injector (must match the driver)")
		metrics     = flag.Bool("metrics", false, "print the local telemetry snapshot on exit")
		traceFile   = flag.String("trace", "", "write worker-side JSONL trace to FILE (spans keyed by the driver's trace id; tracestat stitches it with the driver's trace)")
		flightFile  = flag.String("flight", "", "dump the in-memory flight recorder (last events, spans included) to FILE on abnormal exit")
		metricsAddr = flag.String("metrics-addr", "", "serve the live telemetry snapshot over HTTP on ADDR (/metrics and /healthz)")
	)
	flag.Parse()

	if *connect == "" {
		warnf("-connect is required (the driver's -workers-addr)")
		return exitUsage
	}
	if *label == "" {
		*label = fmt.Sprintf("brokerd-%d", os.Getpid())
	}

	resolve, err := newResolver(spec.Spec{
		Annotation: *annotation,
		Machine:    *machineN, Compiler: *compilerN, Threads: *threads,
		Faults: *faultRate, Retries: *retries, Timeout: *timeout, Seed: *seed,
	})
	if err != nil {
		warnf("%v", err)
		return exitUsage
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Worker-side telemetry: the resilient layer's fault/retry/censor
	// events and the worker-eval spans land here, local to this process
	// (DESIGN.md §8/§9): metrics aggregation, the JSONL trace tracestat
	// stitches with the driver's by trace id, and the flight recorder
	// dumped on abnormal exit.
	ctx, tel, err := obs.Open(ctx, obs.Outputs{
		Trace: *traceFile, Metrics: *metrics, MetricsAddr: *metricsAddr, Flight: *flightFile,
	})
	if err != nil {
		warnf("%v", err)
		return exitError
	}
	if *metricsAddr != "" {
		warnf("metrics at http://%s/metrics", tel.MetricsAddr())
	}

	w := &remote.Worker{
		Resolve:   resolve,
		Label:     *label,
		BeatEvery: *heartbeat,
		Tracer:    tel.Tracer(),
	}
	warnf("connecting to %s as %s", *connect, *label)
	err = w.Run(ctx, func(ctx context.Context) (net.Conn, error) {
		return remote.Dial(ctx, *connect)
	})
	// Only an abnormal exit persists the flight recorder, so the last
	// events before the failure survive the process.
	failed := err != nil && !errors.Is(err, context.Canceled)
	if cerr := tel.Close(failed); cerr != nil {
		warnf("%v", cerr)
	} else if failed && *flightFile != "" {
		warnf("flight recording dumped to %s", *flightFile)
	}
	if *metrics {
		fmt.Print(tel.Registry().Snapshot())
	}
	switch {
	case err == nil:
		warnf("driver said goodbye, shutting down")
		return exitOK
	case errors.Is(err, context.Canceled):
		warnf("interrupted, shutting down")
		return exitOK
	default:
		warnf("%v", err)
		return exitError
	}
}

// newResolver validates the worker's spec and builds the wire-name ->
// problem resolver: every problem the driver can tune (SPAPT kernels,
// mini-apps, and the spec's annotated kernel under its parsed name),
// each built as the full evaluation stack the spec describes.
// Instances are cached per name so a re-dispatched task evaluates
// against the same injector state, and the cache is goroutine-safe
// because the worker evaluates tasks on separate goroutines.
func newResolver(s spec.Spec) (remote.Resolver, error) {
	p, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	annotated := ""
	if s.Annotation != "" {
		annotated, _, _ = strings.Cut(p.Name(), "@")
	}

	build := func(name string) (search.Problem, error) {
		base, _, qualified := strings.Cut(name, "@")
		task := s
		task.Problem = base
		if base != annotated {
			task.Annotation = ""
		}
		p, err := task.Base()
		if err != nil {
			return nil, err
		}
		p, _ = task.Build(p)
		if qualified && p.Name() != name {
			return nil, fmt.Errorf("target mismatch: driver tunes %s, this worker builds %s (align -machine/-compiler/-threads)", name, p.Name())
		}
		return p, nil
	}

	var mu sync.Mutex
	cache := map[string]search.Problem{}
	return func(name string) (search.Problem, error) {
		mu.Lock()
		defer mu.Unlock()
		if p, ok := cache[name]; ok {
			return p, nil
		}
		p, err := build(name)
		if err != nil {
			return nil, err
		}
		cache[name] = p
		return p, nil
	}, nil
}
