package remote

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/spec"
)

// readAll collects n frames from fc on a background peer.
func readFrames(t *testing.T, fc *frameConn, n int) []Frame {
	t.Helper()
	out := make([]Frame, 0, n)
	for len(out) < n {
		f, err := fc.read()
		if err != nil {
			t.Fatalf("read frame %d: %v", len(out), err)
		}
		out = append(out, f)
	}
	return out
}

func TestFrameCodecRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	src := newFrameConn(a, "src", nil)
	dst := newFrameConn(b, "dst", nil)
	defer func() { _ = src.close() }()
	defer func() { _ = dst.close() }()

	frames := []Frame{
		{Type: MsgHello, Label: "w0"},
		{Type: MsgTask, Task: &TaskPayload{
			Seq: 7, Problem: "bowl", Config: []int{3, 7, 1, 5}, Attempt: 2,
			RemainingNS: int64(90 * time.Second),
		}},
		{Type: MsgResult, Result: &ResultPayload{
			Seq: 7, RunTime: obs.JSONFloat(math.Inf(1)), Cost: 12.5,
			Status: uint8(search.StatusFailed), Retries: 2, Err: "compile failed",
		}},
		{Type: MsgResult, Result: &ResultPayload{
			Seq: 8, RunTime: obs.JSONFloat(math.NaN()), Cost: obs.JSONFloat(math.Inf(-1)),
		}},
		{Type: MsgBeat},
		{Type: MsgCancel, Seq: 9},
		{Type: MsgBye},
	}
	go func() {
		for _, f := range frames {
			if err := src.write(f); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	got := readFrames(t, dst, len(frames))
	for i, want := range frames {
		g := got[i]
		if g.Type != want.Type || g.Label != want.Label || g.Seq != want.Seq {
			t.Fatalf("frame %d: got %+v want %+v", i, g, want)
		}
		if want.Task != nil {
			if g.Task == nil || g.Task.Seq != want.Task.Seq || g.Task.Problem != want.Task.Problem ||
				g.Task.Attempt != want.Task.Attempt || g.Task.RemainingNS != want.Task.RemainingNS ||
				fmt.Sprint(g.Task.Config) != fmt.Sprint(want.Task.Config) {
				t.Fatalf("frame %d task: got %+v want %+v", i, g.Task, want.Task)
			}
		}
		if want.Result != nil {
			gr, wr := g.Result, want.Result
			if gr == nil || gr.Seq != wr.Seq || gr.Status != wr.Status || gr.Retries != wr.Retries || gr.Err != wr.Err {
				t.Fatalf("frame %d result: got %+v want %+v", i, gr, wr)
			}
			// Non-finite floats must survive the wire bit-for-bit in kind.
			for name, pair := range map[string][2]float64{
				"run_time": {float64(gr.RunTime), float64(wr.RunTime)},
				"cost":     {float64(gr.Cost), float64(wr.Cost)},
			} {
				g, w := pair[0], pair[1]
				same := g == w || (math.IsNaN(g) && math.IsNaN(w))
				if !same {
					t.Fatalf("frame %d result %s: got %v want %v", i, name, g, w)
				}
			}
		}
	}
}

func TestOutcomeWireRoundTrip(t *testing.T) {
	outs := []search.Outcome{
		{RunTime: 3.25, Cost: 4.75, Status: search.StatusOK},
		{RunTime: 120, Cost: 250.5, Status: search.StatusCensored, Retries: 2},
		{RunTime: math.Inf(1), Cost: 9, Status: search.StatusFailed, Retries: 1,
			Err: errors.New("crash"), Degraded: true},
	}
	for i, want := range outs {
		got := outcomeFromWire(outcomeToWire(17, want))
		if got.RunTime != want.RunTime && !(math.IsInf(got.RunTime, 1) && math.IsInf(want.RunTime, 1)) {
			t.Fatalf("outcome %d: run time %v != %v", i, got.RunTime, want.RunTime)
		}
		if got.Cost != want.Cost || got.Status != want.Status ||
			got.Retries != want.Retries || got.Degraded != want.Degraded {
			t.Fatalf("outcome %d: got %+v want %+v", i, got, want)
		}
		if (got.Err == nil) != (want.Err == nil) {
			t.Fatalf("outcome %d: err %v vs %v", i, got.Err, want.Err)
		}
		if want.Err != nil && got.Err.Error() != want.Err.Error() {
			t.Fatalf("outcome %d: err %q vs %q", i, got.Err, want.Err)
		}
	}
}

func TestFrameSizeLimit(t *testing.T) {
	big := Frame{Type: MsgTask, Task: &TaskPayload{Config: make([]int, maxFrame)}}
	if _, err := encodeFrame(big); !errors.Is(err, errFrameTooBig) {
		t.Fatalf("oversize frame: err = %v, want %v", err, errFrameTooBig)
	}
}

// TestSeededNetFaultsPure pins the injector's purity contract: the same
// (conn, frame) point always plans the same fault, regardless of call
// order or repetition.
func TestSeededNetFaultsPure(t *testing.T) {
	f := SeededNetFaults{
		Seed: 42, DropRate: 0.2, DelayRate: 0.2, DupRate: 0.2,
		ReorderRate: 0.2, PartitionRate: 0.05, PartitionLen: 3,
	}
	conns := []string{"p:s0", "p:s1", "w:w0"}
	type point struct {
		conn  string
		frame int
	}
	first := map[point]Action{}
	for _, c := range conns {
		for n := 0; n < 200; n++ {
			first[point{c, n}] = f.Plan(c, n)
		}
	}
	// Re-ask in reverse order: pure functions cannot care.
	for _, c := range conns {
		for n := 199; n >= 0; n-- {
			if got := f.Plan(c, n); got != first[point{c, n}] {
				t.Fatalf("Plan(%s,%d) changed between calls: %+v then %+v", c, n, first[point{c, n}], got)
			}
		}
	}
}

// TestPartitionWindowContiguous verifies a partition drops a contiguous
// run of PartitionLen frames from its deterministic start point.
func TestPartitionWindowContiguous(t *testing.T) {
	f := SeededNetFaults{Seed: 7, PartitionRate: 0.03, PartitionLen: 4}
	starts := 0
	for n := 0; n < 2000; n++ {
		if f.roll("partition", "p:s0", n) >= f.PartitionRate {
			continue
		}
		starts++
		for k := n; k < n+f.PartitionLen; k++ {
			if !f.Plan("p:s0", k).Drop {
				t.Fatalf("frame %d inside partition window starting at %d was not dropped", k, n)
			}
		}
	}
	if starts == 0 {
		t.Fatal("no partition start in 2000 frames; rate or seed is broken")
	}
}

// scriptFaults maps frame ordinals to actions.
type scriptFaults map[int]Action

func (s scriptFaults) Plan(conn string, frame int) Action { return s[frame] }

// TestFaultFramerDropDupReorder scripts one fault of each shape and
// checks the observed frame sequence: drops vanish, duplicates double,
// a held frame is released right after its successor.
func TestFaultFramerDropDupReorder(t *testing.T) {
	a, b := net.Pipe()
	src := newFrameConn(a, "src", scriptFaults{1: {Drop: true}, 2: {Duplicate: true}, 3: {Hold: true}})
	dst := newFrameConn(b, "dst", nil)
	defer func() { _ = src.close() }()
	defer func() { _ = dst.close() }()

	go func() {
		for seq := 0; seq < 6; seq++ {
			if err := src.write(Frame{Type: MsgCancel, Seq: seq}); err != nil {
				t.Errorf("write %d: %v", seq, err)
				return
			}
		}
	}()
	got := readFrames(t, dst, 6)
	var seqs []int
	for _, f := range got {
		seqs = append(seqs, f.Seq)
	}
	want := []int{0, 2, 2, 4, 3, 5}
	if fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("frame sequence %v, want %v", seqs, want)
	}
}

// TestHeldFrameFlushedOnClose pins that a reorder-held frame is delayed,
// never lost: close flushes it.
func TestHeldFrameFlushedOnClose(t *testing.T) {
	a, b := net.Pipe()
	src := newFrameConn(a, "src", scriptFaults{0: {Hold: true}})
	dst := newFrameConn(b, "dst", nil)
	defer func() { _ = dst.close() }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := src.write(Frame{Type: MsgCancel, Seq: 99}); err != nil {
			t.Errorf("write: %v", err)
		}
		_ = src.close()
	}()
	f, err := dst.read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if f.Seq != 99 {
		t.Fatalf("flushed frame seq %d, want 99", f.Seq)
	}
	<-done
}

func TestEvalGuardExactlyOnce(t *testing.T) {
	g := NewEvalGuard()
	var evals int32
	var mu sync.Mutex
	eval := func() search.Outcome {
		mu.Lock()
		evals++
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // widen the concurrency window
		return search.Outcome{RunTime: 1.5, Cost: 2, Status: search.StatusOK}
	}
	const copies = 8
	var wg sync.WaitGroup
	outs := make([]search.Outcome, copies)
	for i := 0; i < copies; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = g.Do(3, eval)
		}()
	}
	wg.Wait()
	if evals != 1 {
		t.Fatalf("%d evaluations for 8 duplicate deliveries, want exactly 1", evals)
	}
	for i, out := range outs {
		if out.RunTime != 1.5 || out.Status != search.StatusOK {
			t.Fatalf("copy %d got %+v, want the cached outcome", i, out)
		}
	}
	// A later duplicate replays from cache without evaluating.
	if out := g.Do(3, eval); out.RunTime != 1.5 || evals != 1 {
		t.Fatalf("late duplicate re-evaluated: evals=%d out=%+v", evals, out)
	}
}

func TestEvalGuardInterruptedNotCached(t *testing.T) {
	g := NewEvalGuard()
	calls := 0
	interrupted := func() search.Outcome {
		calls++
		return search.Outcome{RunTime: math.Inf(1), Status: search.StatusFailed, Err: context.Canceled}
	}
	if out := g.Do(1, interrupted); !out.Interrupted() {
		t.Fatalf("expected interrupted outcome, got %+v", out)
	}
	ok := func() search.Outcome {
		calls++
		return search.Outcome{RunTime: 2, Status: search.StatusOK}
	}
	if out := g.Do(1, ok); out.Status != search.StatusOK {
		t.Fatalf("retransmit after interruption got %+v, want a fresh evaluation", out)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (interrupted outcomes must not be cached)", calls)
	}
}

// TestWorkerReconnectBackoff pins the reconnect ladder: failed dials
// retry with capped exponential backoff and the attempt counter resets
// after an established session; a graceful bye ends Run with nil.
func TestWorkerReconnectBackoff(t *testing.T) {
	mem := &obs.MemorySink{}
	var dials int
	dial := func(ctx context.Context) (net.Conn, error) {
		dials++
		if dials <= 3 {
			return nil, fmt.Errorf("dial refused (attempt %d)", dials)
		}
		client, server := net.Pipe()
		// Fake pool: accept hello, ack it, then say bye.
		go func() {
			fc := newFrameConn(server, "fake-pool", nil)
			f, err := fc.read()
			if err != nil || f.Type != MsgHello {
				t.Errorf("fake pool: hello = %+v, %v", f, err)
				return
			}
			_ = fc.write(Frame{Type: MsgBeat})
			_ = fc.write(Frame{Type: MsgBye})
		}()
		return client, nil
	}
	w := &Worker{
		Resolve:     func(string) (search.Problem, error) { return nil, errors.New("unused") },
		Label:       "w0",
		Backoff:     time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		MaxAttempts: 5,
		Tracer:      obs.New(mem),
	}
	if err := w.Run(context.Background(), dial); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if dials != 4 {
		t.Fatalf("dials = %d, want 4 (3 refused + 1 served)", dials)
	}
	recon := mem.ByKind(obs.KindReconnect)
	if len(recon) != 3 {
		t.Fatalf("reconnect events = %d, want 3: %+v", len(recon), recon)
	}
	wantBackoff := []float64{0.001, 0.002, 0.002} // 1ms, 2ms, capped at 2ms
	for i, e := range recon {
		if e.N != i+1 {
			t.Fatalf("reconnect %d: attempt %d, want %d", i, e.N, i+1)
		}
		if e.Cost != wantBackoff[i] {
			t.Fatalf("reconnect %d: backoff %v, want %v", i, e.Cost, wantBackoff[i])
		}
	}
}

// TestWorkerGivesUpAfterMaxAttempts bounds the reconnect loop.
func TestWorkerGivesUpAfterMaxAttempts(t *testing.T) {
	dial := func(ctx context.Context) (net.Conn, error) { return nil, errors.New("refused") }
	w := &Worker{
		Resolve:     func(string) (search.Problem, error) { return nil, errors.New("unused") },
		Backoff:     100 * time.Microsecond,
		BackoffCap:  200 * time.Microsecond,
		MaxAttempts: 3,
	}
	err := w.Run(context.Background(), dial)
	if err == nil {
		t.Fatal("Run returned nil with every dial refused")
	}
}

// TestWorkerRefusesMisfitConfig: a task whose config does not fit the
// named problem's space comes back Interrupted carrying the space's
// error, as an unresolvable name does, and the worker goes on to serve
// the next task. Evaluating such a config would panic the worker.
func TestWorkerRefusesMisfitConfig(t *testing.T) {
	const name = "LU@Sandybridge/gnu-4.4.7/t1"
	resolve, err := spec.Resolver("")
	if err != nil {
		t.Fatal(err)
	}
	lu, err := resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	w := &Worker{Resolve: resolve, Label: "w0"}
	done := make(chan error, 1)
	go func() { done <- w.Serve(context.Background(), client) }()

	fc := newFrameConn(server, "fake-pool", nil)
	defer func() { _ = fc.close() }()
	if f, err := fc.read(); err != nil || f.Type != MsgHello {
		t.Fatalf("hello = %+v, %v", f, err)
	}
	serve := func(seq int, config []int) *ResultPayload {
		t.Helper()
		task := &TaskPayload{Seq: seq, Problem: name, Config: config, Attempt: 1}
		if err := fc.write(Frame{Type: MsgTask, Task: task}); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := fc.read()
			if err != nil {
				t.Fatalf("task %d: %v", seq, err)
			}
			if f.Type == MsgResult {
				return f.Result
			}
		}
	}

	bad := serve(1, []int{99, 99})
	if !bad.Interrupted || !strings.Contains(bad.Err, "config has 2 entries, space has 9 parameters") {
		t.Fatalf("misfit config: got %+v, want an Interrupted result carrying the space error", bad)
	}
	good := lu.Space().Random(rng.New(1))
	got := outcomeFromWire(serve(2, good))
	want := search.EvaluateFull(context.Background(), lu, good)
	if got.RunTime != want.RunTime || got.Cost != want.Cost || got.Status != want.Status || got.Err != nil {
		t.Fatalf("valid config after the misfit one: got %+v, want %+v", got, want)
	}

	if err := fc.write(Frame{Type: MsgBye}); err != nil {
		t.Fatal(err)
	}
	// Drain heartbeats until the worker hangs up.
	go func() {
		for {
			if _, err := fc.read(); err != nil {
				return
			}
		}
	}()
	if err := <-done; err != nil {
		t.Fatalf("worker session ended with %v, want a graceful bye", err)
	}
}
