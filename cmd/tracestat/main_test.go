package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// toy is a deterministic problem whose run time varies with the config,
// so the best-so-far curve has several improvement steps.
type toy struct{ spc *space.Space }

func newToy() *toy {
	return &toy{spc: space.New(
		space.NewIntRange("a", 0, 9),
		space.NewIntRange("b", 0, 9),
	)}
}

func (t *toy) Name() string        { return "toy" }
func (t *toy) Space() *space.Space { return t.spc }
func (t *toy) Evaluate(c space.Config) (float64, float64) {
	v := float64((c[0]-3)*(c[0]-3)+(c[1]-7)*(c[1]-7)) + 1
	return v, v
}

// traceSearch runs a traced RS and returns both the Result and the
// decoded trace events.
func traceSearch(t *testing.T, nmax int) (*search.Result, []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	ctx := obs.WithTracer(context.Background(), obs.New(sink))
	res := search.RS(ctx, newToy(), nmax, rng.New(5))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// TestCurveMatchesResultBestSoFar is the acceptance criterion: the
// best-so-far trajectory reconstructed from the trace alone must equal
// the one computed from the in-memory Result.
func TestCurveMatchesResultBestSoFar(t *testing.T) {
	res, events := traceSearch(t, 40)
	want := res.BestSoFar()
	got := bestSoFar(events)
	if len(got) != len(want) {
		t.Fatalf("curve length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] && !(math.IsInf(got[i], 1) && math.IsInf(want[i], 1)) {
			t.Fatalf("curve[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAnalyzeAndRender(t *testing.T) {
	res, events := traceSearch(t, 25)
	st := analyze(events)
	if st.algorithm != "RS" || st.problem != "toy" {
		t.Fatalf("header: %q %q", st.algorithm, st.problem)
	}
	if st.evals != len(res.Records) {
		t.Fatalf("evals = %d, want %d", st.evals, len(res.Records))
	}
	best, idx, _ := res.Best()
	if st.bestRun != best.RunTime || st.bestSeq != idx {
		t.Fatalf("best = %v@%d, want %v@%d", st.bestRun, st.bestSeq, best.RunTime, idx)
	}
	if st.clock != res.Elapsed() {
		t.Fatalf("clock = %v, want %v", st.clock, res.Elapsed())
	}
	// The curve rows are exactly the improvement steps.
	prev := math.Inf(1)
	steps := 0
	for i, b := range res.BestSoFar() {
		if b < prev {
			steps++
			prev = b
			_ = i
		}
	}
	if len(st.curve) != steps {
		t.Fatalf("curve rows = %d, want %d improvement steps", len(st.curve), steps)
	}

	var out bytes.Buffer
	render(&out, st)
	text := out.String()
	for _, want := range []string{"algorithm:    RS", "problem:      toy",
		"convergence (best-so-far)", "search clock:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render output missing %q:\n%s", want, text)
		}
	}
}

func TestRunReadsFileAndStdin(t *testing.T) {
	_, events := traceSearch(t, 10)
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{path}, &out); code != exitOK {
		t.Fatalf("run = %d", code)
	}
	if !strings.Contains(out.String(), "trace:") {
		t.Fatalf("no summary in output:\n%s", out.String())
	}
	// Several files merge into one trace: the same file twice holds
	// twice the events.
	out.Reset()
	if code := run([]string{path, path}, &out); code != exitOK {
		t.Fatalf("two files = %d", code)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("trace: %d events", 2*len(events))) {
		t.Fatalf("merged summary wrong:\n%s", out.String())
	}
	if code := run([]string{}, &out); code != exitUsage {
		t.Fatalf("no args = %d, want %d", exitUsage, exitUsage)
	}
	if code := run([]string{"-bogus"}, &out); code != exitUsage {
		t.Fatalf("flag-like arg = %d, want %d", exitUsage, exitUsage)
	}
	if code := run([]string{path + ".missing"}, &out); code != exitError {
		t.Fatalf("missing file = %d, want %d", code, exitError)
	}
}

// slowToy burns a little real wall time per evaluation so a distributed
// run keeps several tasks in flight at once.
type slowToy struct {
	*toy
	delay time.Duration
}

func (s *slowToy) Evaluate(c space.Config) (float64, float64) {
	time.Sleep(s.delay)
	return s.toy.Evaluate(c)
}

// TestStitchDistributedTrace is the stitching acceptance criterion: a
// distributed run writes one coordinator trace and one trace per remote
// worker; tracestat merges the three files into per-task causal chains
// whose reconstructed evaluation count equals the broker's own
// broker.submits counter exactly, with both workers' evaluations
// attributed in the utilization table.
func TestStitchDistributedTrace(t *testing.T) {
	const nmax = 30
	dir := t.TempDir()

	// Coordinator: JSONL trace plus the live metrics registry whose
	// broker.* counters the stitched view must reproduce.
	var coordBuf bytes.Buffer
	coordSink := obs.NewJSONLSink(&coordBuf)
	reg := obs.NewRegistry()
	tr := obs.New(obs.Multi(coordSink, obs.NewMetricsSink(reg)))

	pool := remote.NewPool(remote.PoolOptions{
		Retries:        100,
		Backoff:        100 * time.Microsecond,
		LeaseTicks:     8,
		TickEvery:      5 * time.Millisecond,
		MaxMissedBeats: 60,
	})
	defer pool.Close()

	// A few milliseconds of real work per evaluation keep several tasks
	// outstanding at once, so least-loaded dispatch has a reason
	// to use both workers.
	p := &slowToy{toy: newToy(), delay: 2 * time.Millisecond}
	guard := remote.NewEvalGuard()
	var workerBufs [2]bytes.Buffer
	var workerSinks [2]*obs.JSONLSink
	wctx, cancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	defer wwg.Wait()
	defer cancel()
	for i := 0; i < 2; i++ {
		workerSinks[i] = obs.NewJSONLSink(&workerBufs[i])
		w := &remote.Worker{
			Resolve:     func(string) (search.Problem, error) { return p, nil },
			Guard:       guard,
			Label:       fmt.Sprintf("w%d", i+1),
			BeatEvery:   2 * time.Millisecond,
			Backoff:     time.Millisecond,
			BackoffCap:  10 * time.Millisecond,
			MaxAttempts: 1 << 20,
			Tracer:      obs.New(workerSinks[i]),
		}
		dial := func(ctx context.Context) (net.Conn, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			client, server := net.Pipe()
			go func() {
				if _, err := pool.AddConn(server); err != nil {
					_ = server.Close()
				}
			}()
			return client, nil
		}
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			_ = w.Run(wctx, dial)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.Sessions() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never connected")
		}
		time.Sleep(time.Millisecond)
	}

	// Drive the pool with concurrent evaluations so least-loaded
	// dispatch spreads tasks across both workers.
	ctx := obs.WithTracer(context.Background(), tr)
	ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: "stitch-test", SpanID: obs.RootSpanID})
	var evalWG sync.WaitGroup
	var okCount int64
	var okMu sync.Mutex
	for i := 0; i < nmax; i++ {
		evalWG.Add(1)
		go func(i int) {
			defer evalWG.Done()
			out := pool.Evaluate(ctx, p, space.Config{i % 10, i / 10})
			if out.Status == search.StatusOK {
				okMu.Lock()
				okCount++
				okMu.Unlock()
			}
		}(i)
	}
	evalWG.Wait()
	if okCount != nmax {
		t.Fatalf("%d of %d evaluations succeeded", okCount, nmax)
	}
	cancel()
	wwg.Wait()

	paths := []string{filepath.Join(dir, "coord.jsonl")}
	if err := coordSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], coordBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range workerSinks {
		if err := workerSinks[i].Flush(); err != nil {
			t.Fatal(err)
		}
		wp := filepath.Join(dir, fmt.Sprintf("worker%d.jsonl", i+1))
		if err := os.WriteFile(wp, workerBufs[i].Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, wp)
	}

	var merged []obs.Event
	for _, path := range paths {
		evs, err := readOne(path)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, evs...)
	}
	d := stitch(merged)
	if d == nil {
		t.Fatal("stitch found no spans")
	}
	if d.traceID != "stitch-test" {
		t.Fatalf("trace id %q, want stitch-test", d.traceID)
	}

	submits := reg.Counter(obs.MetricBrokerSubmits).Value()
	if submits == 0 {
		t.Fatal("broker recorded no submits")
	}
	if int64(d.evals) != submits {
		t.Fatalf("stitched evaluations = %d, broker.submits = %d — the merged trace must reconstruct the broker's count exactly", d.evals, submits)
	}
	if len(d.tasks) != nmax {
		t.Fatalf("stitched %d tasks, want %d", len(d.tasks), nmax)
	}
	// Every task's chain must carry its causal backbone: enqueue on the
	// coordinator, a worker-eval from one of the worker files.
	for seq, task := range d.tasks {
		if task.enqueueWall == 0 {
			t.Fatalf("task %d has no enqueue span", seq)
		}
		ran := false
		for _, a := range task.attempts {
			if a.evalWorker != "" {
				ran = true
			}
		}
		if !ran {
			t.Fatalf("task %d has no worker-eval span", seq)
		}
	}
	if len(d.workers) != 2 || d.workers["w1"] == nil || d.workers["w2"] == nil {
		t.Fatalf("utilization table %v, want both w1 and w2", d.workers)
	}

	var out bytes.Buffer
	if code := run(paths, &out); code != exitOK {
		t.Fatalf("run = %d", code)
	}
	text := out.String()
	for _, want := range []string{
		"distributed trace",
		"trace id:     stitch-test",
		fmt.Sprintf("evaluations:  %d", submits),
		"per-task timeline",
		"worker utilization",
		"w1", "w2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunSkipsTornTail is the degraded-input regression: a trace whose
// final line was cut mid-write (worker killed, disk full) still renders
// — the torn line is skipped with a warning, not a fatal parse error.
func TestRunSkipsTornTail(t *testing.T) {
	_, events := traceSearch(t, 10)
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := append(buf.Bytes(), []byte(`{"kind":"eval","seq":999,"val`)...)
	path := t.TempDir() + "/torn.jsonl"
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{path}, &out); code != exitOK {
		t.Fatalf("run on torn trace = %d, want %d", code, exitOK)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("trace: %d events", len(events))) {
		t.Fatalf("torn tail leaked into the summary:\n%s", out.String())
	}
}
