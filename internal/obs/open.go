package obs

import (
	"context"
	"fmt"
	"os"
)

// Outputs names the telemetry a process asks for, one field per
// command-line flag. The zero value asks for none.
type Outputs struct {
	Trace       string // -trace: JSONL event file
	Metrics     bool   // -metrics: aggregate into a registry
	MetricsAddr string // -metrics-addr: serve the registry over HTTP (implies a registry)
	Flight      string // -flight: ring of recent events, dumped here on failure
	Progress    bool   // -progress: live progress line on stderr
}

// Telemetry is one process's telemetry: the sinks its Outputs asked
// for, composed into one tracer.
type Telemetry struct {
	tracer *Tracer
	reg    *Registry
	trace  *JSONLSink
	prog   *ProgressSink
	rec    *Recorder
	flight string
	srv    *MetricsServer
}

// Open builds the telemetry out asks for and returns ctx carrying its
// tracer. With no outputs the tracer is nil and ctx is returned as is,
// so the untraced hot path stays free. On error nothing is left open.
func Open(ctx context.Context, out Outputs) (context.Context, *Telemetry, error) {
	t := &Telemetry{flight: out.Flight}
	var sinks []Sink
	if out.Trace != "" {
		f, err := os.Create(out.Trace)
		if err != nil {
			return ctx, nil, fmt.Errorf("trace: %w", err)
		}
		t.trace = NewJSONLSink(f)
		sinks = append(sinks, t.trace)
	}
	if out.Metrics || out.MetricsAddr != "" {
		t.reg = NewRegistry()
		sinks = append(sinks, NewMetricsSink(t.reg))
	}
	if out.Progress {
		t.prog = NewProgressSink(os.Stderr, 0)
		sinks = append(sinks, t.prog)
	}
	if out.Flight != "" {
		t.rec = NewRecorder(0)
		sinks = append(sinks, t.rec)
	}
	if out.MetricsAddr != "" {
		srv, err := ServeMetrics(out.MetricsAddr, t.reg)
		if err != nil {
			if t.trace != nil {
				_ = t.trace.Close() // empty: the open itself failed
			}
			return ctx, nil, fmt.Errorf("metrics-addr: %w", err)
		}
		t.srv = srv
	}
	if t.tracer = New(Multi(sinks...)); t.tracer != nil {
		ctx = WithTracer(ctx, t.tracer)
	}
	return ctx, t, nil
}

// Tracer returns the composed tracer (nil when no output was asked for).
func (t *Telemetry) Tracer() *Tracer { return t.tracer }

// Registry returns the metrics registry, nil unless Metrics or
// MetricsAddr was set. It stays readable after Close.
func (t *Telemetry) Registry() *Registry { return t.reg }

// MetricsAddr returns the metrics server's bound address (the resolved
// port for ":0"), or "" when none is served.
func (t *Telemetry) MetricsAddr() string {
	if t.srv == nil {
		return ""
	}
	return t.srv.Addr()
}

// Close tears the telemetry down once every emitter has stopped, in
// this order: it finishes the progress line, closes the trace, dumps
// the flight ring when failed is true and Flight was set, and closes
// the metrics server. Every step runs; Close returns the first error.
func (t *Telemetry) Close(failed bool) error {
	var first error
	keep := func(what string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", what, err)
		}
	}
	if t.prog != nil {
		t.prog.Finish()
	}
	if t.trace != nil {
		keep("trace", t.trace.Close())
	}
	if failed && t.rec != nil {
		keep("flight", t.rec.Dump(t.flight))
	}
	if t.srv != nil {
		keep("metrics-addr", t.srv.Close())
	}
	return first
}
