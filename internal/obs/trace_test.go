package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestKindNamesExhaustive catches the next contributor adding a Kind
// without registering it: every kind below the sentinel must have a
// non-empty String() that is not the kind(N) fallback, round-trip
// through ParseKind, and keep its stable wire name.
func TestKindNamesExhaustive(t *testing.T) {
	for k := Kind(0); k < kindSentinel; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("Kind(%d) has an empty name", uint8(k))
			continue
		}
		if strings.HasPrefix(name, "kind(") {
			t.Errorf("Kind(%d) is unregistered in kindNames (String() = %q)", uint8(k), name)
			continue
		}
		parsed, err := ParseKind(name)
		if err != nil {
			t.Errorf("ParseKind(%q): %v", name, err)
		} else if parsed != k {
			t.Errorf("ParseKind(%q) = %d, want %d", name, parsed, k)
		}
	}
	if len(kindNames) != int(kindSentinel) {
		t.Errorf("kindNames has %d entries, the Kind block declares %d", len(kindNames), kindSentinel)
	}

	// The wire names are a compatibility contract: traces written by one
	// build must parse in the next. Renaming an entry here must be a
	// conscious, documented break.
	wire := []string{
		"search-start", "search-finish", "eval", "skip", "cache-hit",
		"retry", "censor", "timeout", "model-fit", "model-predict",
		"checkpoint", "journal-append", "fault", "degraded", "pool-start",
		"worker-task", "pool-finish", "warning", "enqueue", "broker-retry",
		"hedge", "breaker", "remote-worker", "heartbeat-miss", "lease",
		"reconnect", "span",
	}
	if len(wire) != int(kindSentinel) {
		t.Fatalf("wire-name table has %d entries, want %d — update it alongside the Kind block", len(wire), kindSentinel)
	}
	for k, want := range wire {
		if got := Kind(k).String(); got != want {
			t.Errorf("Kind(%d) wire name = %q, want stable %q", k, got, want)
		}
	}
}

// TestSpanIDsDisjoint pins the structural span-id scheme: ids derived
// for different (seq, attempt, stage) coordinates never collide, and
// the same coordinates always rebuild the same id — the property that
// lets coordinator and worker processes agree without coordination.
func TestSpanIDsDisjoint(t *testing.T) {
	stages := []string{"enqueue", "dispatch", "lease", "worker-eval", "result", "hedge-loss"}
	seen := map[uint64]string{RootSpanID: "root"}
	record := func(id uint64, what string) {
		if prev, dup := seen[id]; dup {
			t.Fatalf("span id collision: %s and %s both map to %#x", prev, what, id)
		}
		seen[id] = what
	}
	for seq := 0; seq < 40; seq++ {
		record(TaskSpanID(seq), fmt.Sprintf("task %d", seq))
		record(StageSpanID(seq, 0, "enqueue"), fmt.Sprintf("enqueue %d", seq))
		for attempt := 1; attempt <= 4; attempt++ {
			record(AttemptSpanID(seq, attempt), fmt.Sprintf("attempt %d/%d", seq, attempt))
			for _, stage := range stages {
				if stage == "enqueue" {
					continue // task-level, recorded above
				}
				record(StageSpanID(seq, attempt, stage), fmt.Sprintf("%s %d/%d", stage, seq, attempt))
			}
		}
	}
	// Determinism: recomputing yields identical ids.
	if TaskSpanID(7) != TaskSpanID(7) || StageSpanID(7, 2, "lease") != StageSpanID(7, 2, "lease") {
		t.Fatal("span ids are not pure functions of their coordinates")
	}
	// Parentage: stages hang off their attempt, attempts off their task,
	// tasks off the root.
	if got := StageParentID(7, 2, "lease"); got != AttemptSpanID(7, 2) {
		t.Errorf("lease parent = %#x, want attempt %#x", got, AttemptSpanID(7, 2))
	}
	if got := StageParentID(7, 0, "enqueue"); got != TaskSpanID(7) {
		t.Errorf("enqueue parent = %#x, want task %#x", got, TaskSpanID(7))
	}
}

// TestTracerSpanStampsWall verifies the sanctioned-timing contract:
// Tracer.Span stamps the wall timestamp itself, so emission sites never
// read the clock; and it emits nothing when the trace context or the
// tracer is disabled.
func TestTracerSpanStampsWall(t *testing.T) {
	mem := &MemorySink{}
	tr := New(mem)
	tc := TraceContext{TraceID: "t1", SpanID: RootSpanID}

	sw := StartTimer()
	time.Sleep(time.Millisecond)
	tr.Span(tc, "worker-eval", 3, 1, "w1", sw.Elapsed())
	tr.SpanRoot(tc, 3, -1)
	tr.SpanRoot(tc, 3, 1)

	events := mem.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	e := events[0]
	if e.Kind != KindSpan || e.Trace != "t1" || e.Worker != "w1" || e.Detail != "worker-eval" {
		t.Fatalf("bad span event: %+v", e)
	}
	if e.Wall == 0 {
		t.Error("Span did not stamp Event.Wall")
	}
	if e.Dur < time.Millisecond {
		t.Errorf("span duration %v lost the stopwatch reading", e.Dur)
	}
	if e.Span != StageSpanID(3, 1, "worker-eval") || e.Parent != AttemptSpanID(3, 1) {
		t.Errorf("span ids %#x/%#x do not match the scheme", e.Span, e.Parent)
	}
	if events[1].Span != TaskSpanID(3) || events[1].Parent != RootSpanID || events[1].Detail != "task" {
		t.Errorf("task anchor span wrong: %+v", events[1])
	}
	if events[2].Span != AttemptSpanID(3, 1) || events[2].Parent != TaskSpanID(3) || events[2].Detail != "attempt" {
		t.Errorf("attempt anchor span wrong: %+v", events[2])
	}

	// Disabled paths emit nothing.
	mem.Reset()
	var off *Tracer
	off.Span(tc, "result", 1, 1, "w", 0)
	tr.Span(TraceContext{}, "result", 1, 1, "w", 0) // invalid trace context
	if mem.Len() != 0 {
		t.Fatalf("disabled span paths emitted %d events", mem.Len())
	}
}

// TestEventTraceFieldsRoundTrip pins the JSONL wire form of the new
// trace fields through marshal and unmarshal.
func TestEventTraceFieldsRoundTrip(t *testing.T) {
	in := Event{
		Kind: KindSpan, Seq: 9, N: 2, Detail: "dispatch",
		Trace: "run-42", Span: StageSpanID(9, 2, "dispatch"), Parent: AttemptSpanID(9, 2),
		Worker: "brokerd-1", Wall: 1700000000123456789, Dur: 42 * time.Microsecond,
	}
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(in)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0] != in {
		t.Fatalf("round trip lost data:\nin:  %+v\nout: %+v", in, events[0])
	}
}

// TestReadTraceLenientSkipsTornTail covers the graceful-degradation
// contract: a trace whose tail was torn mid-write (or corrupted in the
// middle) yields every parsable event plus a skip count, where the
// strict reader aborts.
func TestReadTraceLenientSkipsTornTail(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Kind: KindEval, Seq: i, Value: float64(i)})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(full, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d", len(lines))
	}

	// Corrupt the middle line and tear the final one.
	torn := lines[0] + lines[1] + "{\"kind\":\"eval\",garbage\n" + lines[3] + lines[4][:len(lines[4])/2]

	events, skipped, err := ReadTraceLenient(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("lenient read: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("lenient read kept %d events, want 3", len(events))
	}
	if skipped != 2 {
		t.Fatalf("lenient read skipped %d lines, want 2", skipped)
	}
	for i, want := range []int{0, 1, 3} {
		if events[i].Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, events[i].Seq, want)
		}
	}
	if _, err := ReadTrace(strings.NewReader(torn)); err == nil {
		t.Fatal("strict ReadTrace accepted a torn trace")
	}
}

// TestRecorderRing pins the flight recorder's ring semantics: capacity
// bounds memory, eviction is oldest-first, order is preserved, and the
// JSONL dump round-trips.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Emit(Event{Kind: KindEval, Seq: i})
	}
	events := rec.Events()
	if len(events) != 4 || rec.Len() != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Seq != 6+i {
			t.Fatalf("ring order wrong at %d: %+v", i, e)
		}
	}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 || back[0].Seq != 6 || back[3].Seq != 9 {
		t.Fatalf("dump round trip wrong: %+v", back)
	}

	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("Reset left events behind")
	}

	// The zero value works (DefaultRecorderSize) — chaostest relies on it.
	var zero Recorder
	zero.Emit(Event{Kind: KindEval})
	if zero.Len() != 1 {
		t.Fatal("zero-value recorder dropped an event")
	}
}

// TestConcurrentFanIn hammers the JSONL, metrics, and recorder sinks
// from many goroutines at once (run under -race) and asserts exact
// counter totals and uncorrupted, complete JSONL output.
func TestConcurrentFanIn(t *testing.T) {
	const goroutines, perG = 16, 200
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	reg := NewRegistry()
	rec := NewRecorder(goroutines * perG)
	tr := New(Multi(jsonl, NewMetricsSink(reg), rec))

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := TraceContext{TraceID: "fan-in", SpanID: RootSpanID}
			for i := 0; i < perG; i++ {
				seq := g*perG + i
				switch i % 4 {
				case 0:
					tr.Eval("RS", "bowl", seq, []int{1, 2}, 1.5, 2.0, 3.0, "ok", 0)
				case 1:
					tr.Span(tc, "dispatch", seq, 1, "w", 0)
				case 2:
					tr.Skip("RS", "bowl", seq, []int{1, 2}, 0.5, 0.4)
				case 3:
					tr.Enqueue("b", seq, 0)
				}
			}
		}()
	}
	wg.Wait()
	if err := jsonl.Close(); err != nil {
		t.Fatalf("jsonl sink error: %v", err)
	}

	want := int64(goroutines * perG / 4)
	for name, c := range map[string]*Counter{
		MetricEvals:         reg.Counter(MetricEvals),
		MetricSpans:         reg.Counter(MetricSpans),
		MetricSkips:         reg.Counter(MetricSkips),
		MetricBrokerSubmits: reg.Counter(MetricBrokerSubmits),
	} {
		if c.Value() != want {
			t.Errorf("counter %s = %d, want %d", name, c.Value(), want)
		}
	}

	// Every line parses — no interleaved/corrupt writes — and nothing
	// was lost.
	events, skipped, err := ReadTraceLenient(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d corrupt JSONL lines after concurrent fan-in", skipped)
	}
	if len(events) != goroutines*perG {
		t.Fatalf("JSONL holds %d events, want %d", len(events), goroutines*perG)
	}
	if rec.Len() != goroutines*perG {
		t.Fatalf("recorder holds %d events, want %d", rec.Len(), goroutines*perG)
	}
	// Strict parse agrees: the concurrent stream is valid JSONL outright.
	if _, err := ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("strict ReadTrace rejected concurrent output: %v", err)
	}
}

// TestMetricsServer drives the zero-dep HTTP surface: /metrics serves
// the registry snapshot, /healthz answers ok.
func TestMetricsServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricEvals).Add(7)
	srv, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	body := get("/metrics")
	if !strings.Contains(body, MetricEvals) || !strings.Contains(body, "7") {
		t.Fatalf("/metrics missing counter: %q", body)
	}
}
