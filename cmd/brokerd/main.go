// Command brokerd is a remote evaluation worker: it connects to a
// driver (cmd/autotune or cmd/experiments started with
// -workers-addr ADDR), receives broker tasks over the wire, evaluates
// them locally, and streams the results back under a heartbeat.
//
// Usage:
//
//	brokerd -connect unix:/tmp/tune.sock [-label w1] [-heartbeat 25ms]
//	        [-annotation FILE] [-metrics] [-trace FILE] [-flight FILE]
//	        [-metrics-addr ADDR]
//
// One worker serves every target of a sweep. Each task names its
// problem qualified by target ("LU@Power7/gnu-4.4.7/t1",
// "MM@XeonPhi/intel-15.0.1/t60+omp", "HPL@Power7",
// "MM_n1000@Sandybridge/gnu-4.4.7/t1"), and the worker builds exactly
// the named bare problem through the evaluation spec (internal/spec),
// refusing any name that is not the name of the problem it would build
// and any config that does not fit its space; -annotation adds an
// annotated kernel, served under its parsed name. Drivers keep their
// fault injector and retry/timeout budgets above the worker pool, so a
// worker takes no evaluator settings.
//
// brokerd reconnects with capped exponential backoff when the driver
// restarts or the network drops, and exits cleanly when the driver
// says goodbye. -metrics prints the worker's local telemetry snapshot
// (worker-eval spans, reconnects) on exit; worker-side telemetry is
// local to this process, not forwarded to the driver.
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
	"syscall"

	"repro/internal/broker/remote"
	"repro/internal/obs"
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
		annotation  = flag.String("annotation", "", "path to an annotated kernel file, served under its parsed name")
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

	resolve, err := spec.Resolver(*annotation)
	if err != nil {
		warnf("%v", err)
		return exitUsage
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Worker-side telemetry: the worker-eval spans and reconnect events
	// land here, local to this process (DESIGN.md §8/§9): metrics
	// aggregation, the JSONL trace tracestat stitches with the driver's
	// by trace id, and the flight recorder dumped on abnormal exit.
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
