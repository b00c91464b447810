package obs

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenNoOutputsKeepsTracerNil(t *testing.T) {
	ctx, tel, err := Open(context.Background(), Outputs{})
	if err != nil {
		t.Fatal(err)
	}
	if tel.Tracer() != nil || FromContext(ctx) != nil || tel.Registry() != nil {
		t.Fatal("no outputs must leave the tracer and registry nil")
	}
	if err := tel.Close(true); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCloseWritesTraceAndMetrics: every event emitted before Close
// is in the trace file after it, the registry saw them, and the metrics
// server no longer answers.
func TestOpenCloseWritesTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	flight := filepath.Join(dir, "flight.jsonl")
	ctx, tel, err := Open(context.Background(), Outputs{
		Trace: trace, Metrics: true, MetricsAddr: "127.0.0.1:0", Flight: flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := FromContext(ctx)
	if tr == nil || tr != tel.Tracer() {
		t.Fatal("Open must put its tracer on the context")
	}
	const n = 50
	for i := 0; i < n; i++ {
		tr.Eval("rs", "p", i, []int{i}, 1, 2, 3, "ok", 0)
	}
	resp, err := http.Get("http://" + tel.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if err := tel.Close(false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadTrace(f)
	if err != nil || len(events) != n {
		t.Fatalf("trace holds %d events (%v), want %d", len(events), err, n)
	}
	if got := tel.Registry().Counter(MetricEvals).Value(); got != n {
		t.Fatalf("registry counted %d evaluations, want %d", got, n)
	}
	if _, err := os.Stat(flight); !os.IsNotExist(err) {
		t.Fatalf("Close(false) dumped the flight ring (stat: %v)", err)
	}
	if resp, err := http.Get("http://" + tel.MetricsAddr() + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("metrics server still serving after Close")
	}
}

func TestCloseFailedDumpsFlight(t *testing.T) {
	flight := filepath.Join(t.TempDir(), "flight.jsonl")
	ctx, tel, err := Open(context.Background(), Outputs{Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	FromContext(ctx).Warn("rs", "last words")
	if err := tel.Close(true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(flight)
	if err != nil || !strings.Contains(string(data), "last words") {
		t.Fatalf("flight dump = %q, %v", data, err)
	}
}

// TestCloseReturnsFirstError: a failing trace and a failing flight dump
// both run, and Close reports the trace's error, the first in order.
func TestCloseReturnsFirstError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full to fail a trace write")
	}
	flight := filepath.Join(t.TempDir(), "missing", "flight.jsonl")
	ctx, tel, err := Open(context.Background(), Outputs{Trace: "/dev/full", Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	FromContext(ctx).Warn("rs", "lost")
	err = tel.Close(true)
	if err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
		t.Fatalf("Close = %v, want the trace error first", err)
	}
}
