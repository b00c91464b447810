package remote

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/journal/crashtest"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// remoteRun executes one RS search served by two fault-injected worker
// sessions sharing an EvalGuard and a problem instance — the loopback
// topology of TestRemoteMatchesInline — under the given context.
func remoteRun(t *testing.T, ctx context.Context, seed uint64, nmax int, workerTracer *obs.Tracer) *search.Result {
	t.Helper()
	pool := NewPool(PoolOptions{
		Retries:        100,
		Backoff:        100 * time.Microsecond,
		LeaseTicks:     4,
		TickEvery:      5 * time.Millisecond,
		MaxMissedBeats: 60,
		Faults:         matchFaults(1009),
	})
	defer pool.Close()

	p := newFaulty4(seed)
	guard := NewEvalGuard()
	var stops []func()
	for _, label := range []string{"w1", "w2"} {
		w := &Worker{
			Resolve:   func(string) (search.Problem, error) { return p, nil },
			Guard:     guard,
			Label:     label,
			BeatEvery: 2 * time.Millisecond,
			Faults:    matchFaults(1009),
			Tracer:    workerTracer,
		}
		stops = append(stops, startWorker(t, pool, w))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	waitUntil(t, "two worker sessions", func() bool { return pool.Sessions() == 2 })

	return search.RS(ctx, pool.Problem(p), nmax, rng.New(seed))
}

// TestDistributedTraceDoesNotPerturb is the PR's headline invariant
// carried over from PR 3: switching on the full distributed telemetry
// stack — trace context on the submission context, span propagation
// over the wire, a JSONL sink, a metrics sink, and an always-on flight
// recorder — changes nothing about a remote search's Result or its
// deterministic event/counter subset, under active network faults.
func TestDistributedTraceDoesNotPerturb(t *testing.T) {
	const seed, nmax = 31, 40

	// Reference: the same remote topology, completely untraced.
	untraced := remoteRun(t, context.Background(), seed, nmax, nil)

	// Inline traced reference for the deterministic telemetry subset.
	wantReg := obs.NewRegistry()
	wantMem := &obs.MemorySink{}
	wantCtx := obs.WithTracer(context.Background(),
		obs.New(obs.Multi(wantMem, obs.NewMetricsSink(wantReg))))
	inline := search.RS(wantCtx, newFaulty4(seed), nmax, rng.New(seed))

	// The traced remote run: every sink the distributed stack offers.
	gotReg := obs.NewRegistry()
	gotMem := &obs.MemorySink{}
	rec := obs.NewRecorder(0)
	jsonl := obs.NewJSONLSink(io.Discard)
	tr := obs.New(obs.Multi(gotMem, obs.NewMetricsSink(gotReg), rec, jsonl))
	ctx := obs.WithTracer(context.Background(), tr)
	ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: "trace-test", SpanID: obs.RootSpanID})
	traced := remoteRun(t, ctx, seed, nmax, tr)

	if err := crashtest.Compare(untraced, traced); err != nil {
		t.Fatalf("traced remote result differs from untraced remote: %v", err)
	}
	if err := crashtest.Compare(inline, traced); err != nil {
		t.Fatalf("traced remote result differs from inline: %v", err)
	}

	// The trace must actually have fired: spans on the coordinator side,
	// events in the flight recorder, stitched span counters.
	spans := gotMem.ByKind(obs.KindSpan)
	if len(spans) == 0 {
		t.Fatal("no span events emitted; tracing was not exercised")
	}
	stages := map[string]bool{}
	for _, e := range spans {
		if e.Trace != "trace-test" {
			t.Fatalf("span with wrong trace id: %+v", e)
		}
		stages[e.Detail] = true
	}
	for _, want := range []string{"task", "enqueue", "attempt", "dispatch", "lease", "worker-eval", "result"} {
		if !stages[want] {
			t.Errorf("no %q span in the trace", want)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	if got := gotReg.Counter(obs.MetricSpans).Value(); got != int64(len(spans)) {
		t.Errorf("span counter %d != span events %d", got, len(spans))
	}
	if err := jsonl.Close(); err != nil {
		t.Errorf("jsonl sink: %v", err)
	}

	// The deterministic subset matches the inline traced run exactly.
	for _, name := range deterministicCounters {
		if w, g := wantReg.Counter(name).Value(), gotReg.Counter(name).Value(); w != g {
			t.Errorf("counter %s: inline %d, traced remote %d", name, w, g)
		}
	}
	we, ge := filterDeterministic(wantMem.Events()), filterDeterministic(gotMem.Events())
	if len(we) != len(ge) {
		t.Fatalf("deterministic event count: inline %d, traced remote %d", len(we), len(ge))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("event %d differs:\ninline: %+v\ntraced remote: %+v", i, we[i], ge[i])
		}
	}
}

// BenchmarkDistributedTrace measures the overhead the distributed
// telemetry stack adds to one remote dispatch round-trip: "untraced" is
// the bare transport, "traced" carries a trace context, a discarded
// JSONL sink, a metrics sink, and the flight recorder — the full
// always-on production configuration.
func BenchmarkDistributedTrace(bm *testing.B) {
	run := func(bm *testing.B, ctx context.Context, workerTracer *obs.Tracer) {
		pool := NewPool(PoolOptions{})
		defer pool.Close()
		p := newTestBowl()
		w := &Worker{
			Resolve:   func(string) (search.Problem, error) { return p, nil },
			BeatEvery: 10 * time.Millisecond,
			Tracer:    workerTracer,
		}
		wctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		dial := func(ctx context.Context) (net.Conn, error) {
			client, server := net.Pipe()
			go func() { _, _ = pool.AddConn(server) }()
			return client, nil
		}
		go func() {
			defer close(done)
			_ = w.Run(wctx, dial)
		}()
		for pool.Sessions() == 0 {
			time.Sleep(time.Millisecond)
		}

		c := space.Config{3, 7}
		bm.ResetTimer()
		for i := 0; i < bm.N; i++ {
			out := pool.Evaluate(ctx, p, c)
			if out.Status != search.StatusOK {
				bm.Fatalf("unexpected outcome %+v", out)
			}
		}
		bm.StopTimer()
		cancel()
		<-done
	}

	bm.Run("untraced", func(bm *testing.B) {
		run(bm, context.Background(), nil)
	})
	bm.Run("traced", func(bm *testing.B) {
		reg := obs.NewRegistry()
		rec := obs.NewRecorder(0)
		tr := obs.New(obs.Multi(obs.NewJSONLSink(io.Discard), obs.NewMetricsSink(reg), rec))
		ctx := obs.WithTracer(context.Background(), tr)
		ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: "bench", SpanID: obs.RootSpanID})
		run(bm, ctx, tr)
	})
}
