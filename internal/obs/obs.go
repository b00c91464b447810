// Package obs is the telemetry layer of the search stack: structured
// tracing plus a small metrics registry, with zero dependencies beyond
// the standard library.
//
// Tracing is event-based. Instrumented code holds a *Tracer (usually
// recovered from the context via FromContext) and calls its typed
// helpers — Eval, Skip, Retry, Censor, ModelFit, ... — which build an
// Event and hand it to the Tracer's Sink. A nil *Tracer is the disabled
// state: every helper checks for it before doing any work, so the
// untraced hot path performs no formatting and no allocation. New
// collapses a no-op sink to that same nil tracer, which is what makes
// the "no-op sink" configuration measurably free (see bench_test.go).
//
// Telemetry must never perturb results. Nothing in this package draws
// randomness or touches the injected rng streams; the only
// non-determinism it observes is wall-clock durations, which are
// recorded beside the simulated search clock, never mixed into it. A
// traced run and an untraced run with the same seed therefore produce
// bit-identical search Results (asserted by TestTracingDoesNotPerturbSearch).
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind is the type of a trace event.
type Kind uint8

const (
	// KindSearchStart opens one search run (algorithm + problem).
	KindSearchStart Kind = iota
	// KindSearchFinish closes a run; N is the evaluation count, Value the
	// final best run time, Elapsed the total search clock.
	KindSearchFinish
	// KindEval is one completed evaluation record.
	KindEval
	// KindSkip is a candidate rejected by a pruning cutoff (RSp/RSpf);
	// Value carries the prediction, Cost the cutoff it missed.
	KindSkip
	// KindCacheHit is a duplicate proposal served from search.Drive's
	// memo without spending budget (every Technique, the OpenTuner
	// ensemble included).
	KindCacheHit
	// KindRetry is one retry decision after a transient failure; N is the
	// attempt index, Cost the backoff charged to the search clock.
	KindRetry
	// KindCensor is a run killed at the timeout cap; Value is the raw run
	// time, Cost the cap it was recorded at.
	KindCensor
	// KindTimeout is an evaluation cut short by context cancellation or
	// deadline — it produced no record.
	KindTimeout
	// KindModelFit is one surrogate fit; N is the training-row count,
	// Dur the wall time spent fitting.
	KindModelFit
	// KindModelPredict aggregates a batch of model predictions; N is the
	// call count, Dur the total wall time.
	KindModelPredict
	// KindCheckpoint is one checkpoint write; N is the covered cursor.
	KindCheckpoint
	// KindJournalAppend is one durable journal append; N is the entry index.
	KindJournalAppend
	// KindFault is an evaluation attempt that failed (injected or real).
	KindFault
	// KindDegraded is a graceful fallback (e.g. surrogate unavailable,
	// model variants degrading to plain RS).
	KindDegraded
	// KindPoolStart opens one worker-pool run (internal/parallel); Algo is
	// the pool label, N the item count, Detail the resolved worker count.
	KindPoolStart
	// KindWorkerTask is one pool item completing: Seq is the item index,
	// N the worker that ran it, Dur its wall time. Emission order follows
	// completion order, so these are the one event class that legitimately
	// varies between runs of the same seed.
	KindWorkerTask
	// KindPoolFinish closes a pool run; N is the number of items executed,
	// Dur the pool's total wall time.
	KindPoolFinish
	// KindWarning is a non-fatal configuration or usage problem the system
	// corrected (e.g. an out-of-range parameter replaced by its default).
	KindWarning
	// KindEnqueue is one task submitted to the remote worker pool: Seq is
	// the task sequence number. Like KindWorkerTask it describes the
	// harness, never the result.
	KindEnqueue
	// KindBrokerRetry is one broker-level re-dispatch after a dispatch
	// failure: Seq is the task, N the dispatch attempt, Cost the backoff
	// wall pause in seconds. Broker retries are worker-fault recovery —
	// distinct from KindRetry, which charges the simulated search clock.
	KindBrokerRetry
	// KindHedge is one hedged re-dispatch of a straggling task: Seq is the
	// task; Detail "wasted" marks the losing copy completing after the
	// winner (its work is charged to telemetry, its result discarded).
	// Hedge events depend on wall-clock straggler detection and are
	// scheduling-dependent, like KindWorkerTask.
	KindHedge
	// KindBreaker was one in-process worker's circuit-breaker transition.
	// No current code emits it; the kind keeps its name so traces
	// written by earlier builds still parse.
	KindBreaker
	// KindRemoteWorker is one remote worker session transition: N is the
	// session id, Detail "connected", "closed" (graceful bye), or "dead"
	// (failure detector declared it). Session lifecycle follows real
	// connections, so these are scheduling-dependent like KindWorkerTask.
	KindRemoteWorker
	// KindHeartbeatMiss is the failure detector noting a missed heartbeat
	// from a remote session: N is the session id, Seq the count of
	// consecutive misses so far. The detector counts monitor ticks, not
	// wall time, so with an injected tick source the miss sequence is
	// deterministic.
	KindHeartbeatMiss
	// KindLease is one lease transition on a remotely dispatched task:
	// Seq is the task, N the session holding (or losing) the lease,
	// Detail "grant", "expire" (reclaimed from a dead or silent worker,
	// task re-dispatched), or "dup-result" (a result arrived for a task
	// another copy already settled; charged to telemetry, discarded from
	// the result).
	KindLease
	// KindReconnect is one worker-side reconnect attempt after a lost
	// broker connection: N is the attempt, Cost the backoff pause in
	// seconds, Detail the triggering error.
	KindReconnect
	// KindSpan is one stage of a distributed evaluation's causal chain:
	// Trace/Span/Parent identify the span in its trace tree, Detail names
	// the stage ("enqueue", "dispatch", "lease", "worker-eval", "result",
	// "hedge-loss", ...), Seq is the task, N the dispatch attempt, Worker
	// the executing worker's label, Dur the stage's wall time and Wall its
	// completion timestamp. Spans follow real scheduling (which worker won,
	// when leases expired), so they are scheduling-dependent like
	// KindWorkerTask: they describe the harness, never the result.
	KindSpan

	// kindSentinel marks the end of the Kind block. Every kind below it
	// must have a kindNames entry; TestKindNamesExhaustive enforces that.
	kindSentinel
)

var kindNames = map[Kind]string{
	KindSearchStart:   "search-start",
	KindSearchFinish:  "search-finish",
	KindEval:          "eval",
	KindSkip:          "skip",
	KindCacheHit:      "cache-hit",
	KindRetry:         "retry",
	KindCensor:        "censor",
	KindTimeout:       "timeout",
	KindModelFit:      "model-fit",
	KindModelPredict:  "model-predict",
	KindCheckpoint:    "checkpoint",
	KindJournalAppend: "journal-append",
	KindFault:         "fault",
	KindDegraded:      "degraded",
	KindPoolStart:     "pool-start",
	KindWorkerTask:    "worker-task",
	KindPoolFinish:    "pool-finish",
	KindWarning:       "warning",
	KindEnqueue:       "enqueue",
	KindBrokerRetry:   "broker-retry",
	KindHedge:         "hedge",
	KindBreaker:       "breaker",
	KindRemoteWorker:  "remote-worker",
	KindHeartbeatMiss: "heartbeat-miss",
	KindLease:         "lease",
	KindReconnect:     "reconnect",
	KindSpan:          "span",
}

// String names the kind as it appears in traces.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// MarshalJSON renders the kind by name, so traces stay readable and
// stable across re-orderings of the constant block.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(k.String())), nil
}

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return err
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Event is one telemetry record. Fields are kind-specific (see the Kind
// docs); unused ones stay zero and are omitted from JSONL traces.
type Event struct {
	Kind Kind `json:"kind"`
	// Seq is the evaluation index within the run, -1 when not tied to one.
	Seq     int    `json:"seq,omitempty"`
	Algo    string `json:"algo,omitempty"`
	Problem string `json:"problem,omitempty"`
	// Config is the candidate's level vector rendered "a,b,c".
	Config string `json:"config,omitempty"`
	// Value / Cost / Elapsed are simulated quantities: run time (or
	// prediction), search-clock charge, cumulative search clock.
	Value   float64 `json:"value,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Elapsed float64 `json:"elapsed,omitempty"`
	Status  string  `json:"status,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	// N is a kind-specific count (batch size, attempt, cursor, ...).
	N int `json:"n,omitempty"`
	// Dur is measured wall time, serialized as nanoseconds. Like Wall
	// below it is non-deterministic: it describes the harness, never the
	// simulated experiment.
	Dur time.Duration `json:"wall_ns,omitempty"`
	// Trace / Span / Parent place the event in a distributed causal
	// chain (KindSpan): Trace identifies the whole run's trace, Span this
	// stage, Parent the stage that caused it. Span ids are pure functions
	// of (seq, attempt, stage), so coordinator and worker processes
	// compute identical ids without coordination.
	Trace  string `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Worker labels the process that executed the span's stage ("inline"
	// for the coordinator itself).
	Worker string `json:"worker,omitempty"`
	// Wall is the event's wall-clock completion timestamp in unix
	// nanoseconds, stamped inside Tracer.Span — never by callers — so
	// emission sites stay clock-free. Non-deterministic, like Dur.
	Wall int64 `json:"wall,omitempty"`
}

// JSONFloat is the one non-finite-safe JSON float, used by traces and by
// the remote wire protocol: the values encoding/json rejects ("+Inf",
// "-Inf", "NaN") travel as strings, finite values as numbers. Failed
// evaluations legitimately carry +Inf run times, and neither a trace
// writer nor a worker may lose them.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		s, err := strconv.Unquote(string(data))
		if err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = JSONFloat(math.Inf(1))
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
		case "NaN":
			*f = JSONFloat(math.NaN())
		default:
			return fmt.Errorf("obs: bad float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// eventJSON is Event's wire form: identical layout, with the float
// fields swapped for the non-finite-safe JSONFloat.
type eventJSON struct {
	Kind    Kind          `json:"kind"`
	Seq     int           `json:"seq,omitempty"`
	Algo    string        `json:"algo,omitempty"`
	Problem string        `json:"problem,omitempty"`
	Config  string        `json:"config,omitempty"`
	Value   JSONFloat     `json:"value,omitempty"`
	Cost    JSONFloat     `json:"cost,omitempty"`
	Elapsed JSONFloat     `json:"elapsed,omitempty"`
	Status  string        `json:"status,omitempty"`
	Detail  string        `json:"detail,omitempty"`
	N       int           `json:"n,omitempty"`
	Dur     time.Duration `json:"wall_ns,omitempty"`
	Trace   string        `json:"trace,omitempty"`
	Span    uint64        `json:"span,omitempty"`
	Parent  uint64        `json:"parent,omitempty"`
	Worker  string        `json:"worker,omitempty"`
	Wall    int64         `json:"wall,omitempty"`
}

// MarshalJSON implements json.Marshaler via the non-finite-safe wire
// form.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Kind: e.Kind, Seq: e.Seq, Algo: e.Algo, Problem: e.Problem,
		Config: e.Config, Value: JSONFloat(e.Value), Cost: JSONFloat(e.Cost),
		Elapsed: JSONFloat(e.Elapsed), Status: e.Status, Detail: e.Detail,
		N: e.N, Dur: e.Dur,
		Trace: e.Trace, Span: e.Span, Parent: e.Parent, Worker: e.Worker, Wall: e.Wall,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Event{
		Kind: j.Kind, Seq: j.Seq, Algo: j.Algo, Problem: j.Problem,
		Config: j.Config, Value: float64(j.Value), Cost: float64(j.Cost),
		Elapsed: float64(j.Elapsed), Status: j.Status, Detail: j.Detail,
		N: j.N, Dur: j.Dur,
		Trace: j.Trace, Span: j.Span, Parent: j.Parent, Worker: j.Worker, Wall: j.Wall,
	}
	return nil
}

// Sink receives trace events. Implementations must tolerate events of
// every kind and must not mutate them.
type Sink interface {
	Emit(Event)
}

// Tracer emits typed events to a sink. The nil *Tracer is valid and
// disabled: every method returns immediately, before formatting any
// argument, which keeps the untraced hot path allocation-free.
type Tracer struct {
	sink Sink
}

// New returns a tracer over sink. A nil sink, or the no-op sink,
// collapses to the nil (disabled) tracer so that "tracing off" and
// "tracing to nowhere" share the same free fast path.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	if _, nop := sink.(NopSink); nop {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether events will be emitted.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Sink returns the tracer's sink (nil when disabled), so callers can
// compose it with additional sinks via Multi.
func (t *Tracer) Sink() Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// Emit sends a raw event. Prefer the typed helpers.
func (t *Tracer) Emit(e Event) {
	if t.Enabled() {
		t.sink.Emit(e)
	}
}

// ConfigString renders a candidate's level vector for traces.
func ConfigString(c []int) string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// SearchStart marks the beginning of one search run.
func (t *Tracer) SearchStart(algo, problem string) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindSearchStart, Seq: -1, Algo: algo, Problem: problem})
}

// SearchFinish marks the end of a run with its totals. best is the best
// measured run time (+Inf when nothing measured), elapsed the final
// search clock.
func (t *Tracer) SearchFinish(algo, problem string, evals, skipped int, best, elapsed float64) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{
		Kind: KindSearchFinish, Seq: -1, Algo: algo, Problem: problem,
		N: evals, Value: best, Elapsed: elapsed,
		Detail: "skipped=" + strconv.Itoa(skipped),
	})
}

// Eval records one completed evaluation.
func (t *Tracer) Eval(algo, problem string, seq int, config []int,
	runTime, cost, elapsed float64, status string, retries int) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{
		Kind: KindEval, Seq: seq, Algo: algo, Problem: problem,
		Config: ConfigString(config),
		Value:  runTime, Cost: cost, Elapsed: elapsed,
		Status: status, N: retries,
	})
}

// Skip records a candidate pruned by a cutoff: its prediction (or source
// measurement) pred missed cutoff.
func (t *Tracer) Skip(algo, problem string, seq int, config []int, pred, cutoff float64) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{
		Kind: KindSkip, Seq: seq, Algo: algo, Problem: problem,
		Config: ConfigString(config), Value: pred, Cost: cutoff,
	})
}

// CacheHit records a duplicate proposal served without spending budget.
func (t *Tracer) CacheHit(algo, problem string, seq int, config []int) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{
		Kind: KindCacheHit, Seq: seq, Algo: algo, Problem: problem,
		Config: ConfigString(config),
	})
}

// Retry records one retry decision: attempt failed transiently and the
// evaluator will try again after charging backoff to the search clock.
func (t *Tracer) Retry(problem string, config []int, attempt int, backoff float64, err error) {
	if !t.Enabled() {
		return
	}
	e := Event{
		Kind: KindRetry, Seq: -1, Problem: problem,
		Config: ConfigString(config), N: attempt, Cost: backoff,
	}
	if err != nil {
		e.Detail = err.Error()
	}
	t.sink.Emit(e)
}

// Censor records a run killed at the timeout cap: raw is the uncapped
// run time, cap what the record carries.
func (t *Tracer) Censor(problem string, config []int, raw, cap float64) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{
		Kind: KindCensor, Seq: -1, Problem: problem,
		Config: ConfigString(config), Value: raw, Cost: cap,
	})
}

// Timeout records an evaluation cut short by context cancellation or
// deadline; no record was produced.
func (t *Tracer) Timeout(problem string, err error) {
	if !t.Enabled() {
		return
	}
	e := Event{Kind: KindTimeout, Seq: -1, Problem: problem}
	if err != nil {
		e.Detail = err.Error()
	}
	t.sink.Emit(e)
}

// ModelFit records one surrogate fit over rows training rows.
func (t *Tracer) ModelFit(source string, rows int, dur time.Duration) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindModelFit, Seq: -1, Detail: source, N: rows, Dur: dur})
}

// ModelPredict aggregates a batch of n model predictions taking dur of
// wall time in the named phase ("pool-score", "scan", ...).
func (t *Tracer) ModelPredict(algo, phase string, n int, dur time.Duration) {
	if !t.Enabled() || n == 0 {
		return
	}
	t.sink.Emit(Event{Kind: KindModelPredict, Seq: -1, Algo: algo, Detail: phase, N: n, Dur: dur})
}

// Checkpoint records one checkpoint write covering cursor entries.
func (t *Tracer) Checkpoint(cursor int, done bool, dur time.Duration) {
	if !t.Enabled() {
		return
	}
	e := Event{Kind: KindCheckpoint, Seq: -1, N: cursor, Dur: dur}
	if done {
		e.Detail = "done"
	}
	t.sink.Emit(e)
}

// JournalAppend records one durable journal append of entry idx.
func (t *Tracer) JournalAppend(idx int, dur time.Duration) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindJournalAppend, Seq: -1, N: idx, Dur: dur})
}

// Fault records a failed evaluation attempt.
func (t *Tracer) Fault(problem string, config []int, attempt int, err error) {
	if !t.Enabled() {
		return
	}
	e := Event{
		Kind: KindFault, Seq: -1, Problem: problem,
		Config: ConfigString(config), N: attempt,
	}
	if err != nil {
		e.Detail = err.Error()
	}
	t.sink.Emit(e)
}

// PoolStart marks the beginning of a worker-pool run: n items over the
// given number of workers, under the pool's label.
func (t *Tracer) PoolStart(label string, workers, n int) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{
		Kind: KindPoolStart, Seq: -1, Algo: label, N: n,
		Detail: "workers=" + strconv.Itoa(workers),
	})
}

// WorkerTask records pool item completing on worker after dur of wall
// time. These events arrive in completion order — they describe the
// harness's scheduling, never the simulated experiment.
func (t *Tracer) WorkerTask(label string, item, worker int, dur time.Duration) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindWorkerTask, Seq: item, Algo: label, N: worker, Dur: dur})
}

// PoolFinish closes a pool run after done items and dur of wall time.
func (t *Tracer) PoolFinish(label string, done int, dur time.Duration) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindPoolFinish, Seq: -1, Algo: label, N: done, Dur: dur})
}

// Warn records a non-fatal configuration or usage problem that the
// system corrected rather than failing on.
func (t *Tracer) Warn(algo, detail string) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindWarning, Seq: -1, Algo: algo, Detail: detail})
}

// Degraded records a graceful fallback with its explanation.
func (t *Tracer) Degraded(detail string) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindDegraded, Seq: -1, Detail: detail})
}

// Enqueue records one task submitted to the remote worker pool: seq is
// the task sequence.
func (t *Tracer) Enqueue(label string, seq int) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindEnqueue, Seq: seq, Algo: label})
}

// BrokerRetry records one broker-level re-dispatch of task seq after a
// dispatch failure: attempt is the dispatch attempt, backoff the wall
// pause (seconds) before re-dispatch.
func (t *Tracer) BrokerRetry(label string, seq, attempt int, backoff float64, detail string) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{
		Kind: KindBrokerRetry, Seq: seq, Algo: label,
		N: attempt, Cost: backoff, Detail: detail,
	})
}

// Hedge records a hedged re-dispatch of straggling task seq. wasted
// marks the losing copy completing after the winner.
func (t *Tracer) Hedge(label string, seq int, wasted bool) {
	if !t.Enabled() {
		return
	}
	e := Event{Kind: KindHedge, Seq: seq, Algo: label}
	if wasted {
		e.Detail = "wasted"
	}
	t.sink.Emit(e)
}

// RemoteWorker records a remote worker session transition: state is
// "connected", "closed" (graceful bye), or "dead" (declared by the
// failure detector).
func (t *Tracer) RemoteWorker(label string, session int, state string) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindRemoteWorker, Seq: -1, Algo: label, N: session, Detail: state})
}

// HeartbeatMiss records the failure detector noting session's missed
// heartbeat; missed is the consecutive-miss count so far.
func (t *Tracer) HeartbeatMiss(label string, session, missed int) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindHeartbeatMiss, Seq: missed, Algo: label, N: session})
}

// Lease records a lease transition on remotely dispatched task seq held
// by session: state is "grant", "expire", or "dup-result".
func (t *Tracer) Lease(label string, seq, session int, state string) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Kind: KindLease, Seq: seq, Algo: label, N: session, Detail: state})
}

// Reconnect records one worker-side reconnect attempt after a lost
// broker connection, pausing backoff seconds first.
func (t *Tracer) Reconnect(label string, attempt int, backoff float64, err error) {
	if !t.Enabled() {
		return
	}
	e := Event{Kind: KindReconnect, Seq: -1, Algo: label, N: attempt, Cost: backoff}
	if err != nil {
		e.Detail = err.Error()
	}
	t.sink.Emit(e)
}

// ctxKey keys the tracer in a context.
type ctxKey struct{}

// WithTracer returns a context carrying t. Searches, evaluators, and the
// journal layer recover it with FromContext, so telemetry threads
// through the existing context plumbing without new parameters.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's tracer, or the nil (disabled) tracer
// when none was attached.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(ctxKey{}).(*Tracer)
	return t
}
