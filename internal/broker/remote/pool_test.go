package remote

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// testBowl mirrors the broker tests' deterministic problem.
type testBowl struct{ spc *space.Space }

func newTestBowl() *testBowl {
	return &testBowl{spc: space.New(
		space.NewIntRange("a", 0, 9),
		space.NewIntRange("b", 0, 9),
	)}
}

func (b *testBowl) Name() string        { return "bowl" }
func (b *testBowl) Space() *space.Space { return b.spc }
func (b *testBowl) Evaluate(c space.Config) (float64, float64) {
	d := 0.0
	for i, t := range []int{3, 7} {
		diff := float64(c[i] - t)
		d += diff * diff
	}
	return 1 + d, 1.5 + d
}

// blockingProblem never finishes an evaluation until released — the
// "worker wedged mid-task" scenario.
type blockingProblem struct {
	spc     *space.Space
	release chan struct{}
}

func (p *blockingProblem) Name() string        { return "bowl" }
func (p *blockingProblem) Space() *space.Space { return p.spc }
func (p *blockingProblem) Evaluate(c space.Config) (float64, float64) {
	<-p.release
	return 999, 999
}

// externalBroker builds an external-mode broker with a tight retry
// budget so a reclaimed lease degrades inline immediately when asked.
// Note broker.Options treats 0 as "default" — pass -1 for no retries.
func externalBroker(retries int) *broker.Broker {
	return broker.New(broker.Options{
		Retries: retries,
		Backoff: 100 * time.Microsecond,
	})
}

// tracedCtx returns a context carrying a tracer over a memory sink and
// a metrics registry.
func tracedCtx() (context.Context, *obs.Registry, *obs.MemorySink) {
	reg := obs.NewRegistry()
	mem := &obs.MemorySink{}
	tr := obs.New(obs.Multi(mem, obs.NewMetricsSink(reg)))
	return obs.WithTracer(context.Background(), tr), reg, mem
}

// startWorker runs a Worker session over a loopback pipe registered
// with the pool and returns a stop func that joins it.
func startWorker(t *testing.T, pool *Pool, w *Worker) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	dial := func(ctx context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			if _, err := pool.AddConn(server); err != nil {
				// Expected during shutdown; the worker's dial loop handles it.
				_ = server.Close()
			}
		}()
		return client, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx, dial)
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// countKindDetail tallies events of kind with the given detail.
func countKindDetail(mem *obs.MemorySink, k obs.Kind, detail string) int {
	n := 0
	for _, e := range mem.ByKind(k) {
		if detail == "" || e.Detail == detail {
			n++
		}
	}
	return n
}

// TestLeaseExpiryReclaim wedges the only worker mid-task and drives the
// monitor with injected ticks: the lease expires deterministically, the
// task is reclaimed, and with the retry budget exhausted it degrades to
// a correct inline evaluation — the evaluation is never lost and never
// double-counted.
func TestLeaseExpiryReclaim(t *testing.T) {
	b := externalBroker(-1) // first reclaim degrades inline
	defer b.Close()
	ticks := make(chan time.Time)
	pool := NewPool(b, PoolOptions{LeaseTicks: 2, MaxMissedBeats: 1 << 30, Ticks: ticks})
	defer pool.Close()

	wedged := &blockingProblem{spc: newTestBowl().Space(), release: make(chan struct{})}
	defer close(wedged.release)
	w := &Worker{
		Resolve:   func(string) (search.Problem, error) { return wedged, nil },
		Label:     "wedged",
		BeatEvery: time.Millisecond,
	}
	stop := startWorker(t, pool, w)
	defer stop()
	waitUntil(t, "worker session", func() bool { return pool.Sessions() == 1 })

	ctx, reg, mem := tracedCtx()
	p := newTestBowl()
	c := space.Config{3, 7}
	want := search.EvaluateFull(context.Background(), p, c.Clone())

	done := make(chan search.Outcome, 1)
	go func() { done <- b.Evaluate(ctx, p, c) }()
	waitUntil(t, "lease grant", func() bool {
		return countKindDetail(mem, obs.KindLease, "grant") >= 1
	})
	// Two ticks expire the LeaseTicks=2 lease; beats keep the session
	// alive, so this is lease expiry, not worker death.
	ticks <- time.Time{}
	ticks <- time.Time{}

	got := <-done
	if got.RunTime != want.RunTime || got.Cost != want.Cost || got.Status != want.Status {
		t.Fatalf("reclaimed outcome differs: got %+v want %+v", got, want)
	}
	if !got.Degraded {
		t.Fatalf("reclaimed-to-inline outcome not marked degraded: %+v", got)
	}
	if n := countKindDetail(mem, obs.KindLease, "expire"); n != 1 {
		t.Fatalf("lease expire events = %d, want 1: %+v", n, mem.ByKind(obs.KindLease))
	}
	if v := reg.Counter(obs.MetricRemoteLeaseExpired).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricRemoteLeaseExpired, v)
	}
}

// TestHeartbeatDeathReclaim registers a session that never beats and
// never answers: after MaxMissedBeats injected ticks the failure
// detector declares it dead, closes it, reclaims its lease, and the
// evaluation completes inline — deterministically, because death is a
// function of delivered ticks, not elapsed time.
func TestHeartbeatDeathReclaim(t *testing.T) {
	b := externalBroker(-1)
	defer b.Close()
	poolMem := &obs.MemorySink{}
	poolReg := obs.NewRegistry()
	ticks := make(chan time.Time)
	pool := NewPool(b, PoolOptions{
		LeaseTicks:     1 << 30, // isolate the death path from lease expiry
		MaxMissedBeats: 3,
		Ticks:          ticks,
		Tracer:         obs.New(obs.Multi(poolMem, obs.NewMetricsSink(poolReg))),
	})
	defer pool.Close()

	// A silent worker: says hello, then reads and discards frames
	// forever, never beating, never answering.
	client, server := net.Pipe()
	silent := newFrameConn(client, "silent", nil)
	go func() {
		if _, err := pool.AddConn(server); err != nil {
			t.Errorf("AddConn: %v", err)
		}
	}()
	if err := silent.write(Frame{Type: MsgHello, Label: "silent"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	go func() {
		for {
			if _, err := silent.read(); err != nil {
				return
			}
		}
	}()
	waitUntil(t, "silent session", func() bool { return pool.Sessions() == 1 })

	ctx, _, mem := tracedCtx()
	p := newTestBowl()
	c := space.Config{1, 2}
	want := search.EvaluateFull(context.Background(), p, c.Clone())

	done := make(chan search.Outcome, 1)
	go func() { done <- b.Evaluate(ctx, p, c) }()
	waitUntil(t, "lease grant", func() bool {
		return countKindDetail(mem, obs.KindLease, "grant") >= 1
	})
	for i := 0; i < 3; i++ {
		ticks <- time.Time{}
	}

	got := <-done
	if got.RunTime != want.RunTime || got.Cost != want.Cost {
		t.Fatalf("outcome after worker death differs: got %+v want %+v", got, want)
	}
	waitUntil(t, "death event", func() bool {
		return countKindDetail(poolMem, obs.KindRemoteWorker, "dead") == 1
	})
	if n := len(poolMem.ByKind(obs.KindHeartbeatMiss)); n != 3 {
		t.Fatalf("heartbeat-miss events = %d, want 3 (one per silent tick)", n)
	}
	if v := poolReg.Counter(obs.MetricRemoteDeaths).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricRemoteDeaths, v)
	}
	if pool.Sessions() != 0 {
		t.Fatalf("dead session still listed: %d", pool.Sessions())
	}
}

// dupEverything duplicates every faultable frame — the duplicate-
// delivery storm. Exactly-once guards must absorb it completely.
type dupEverything struct{}

func (dupEverything) Plan(conn string, frame int) Action { return Action{Duplicate: true} }

// TestDuplicateResultStorm runs real evaluations with every frame
// duplicated in both directions: results stay correct and exactly one
// copy settles each task; surplus copies are charged as dup-results.
func TestDuplicateResultStorm(t *testing.T) {
	b := externalBroker(2)
	defer b.Close()
	poolReg := obs.NewRegistry()
	pool := NewPool(b, PoolOptions{
		Faults: dupEverything{},
		Tracer: obs.New(obs.NewMetricsSink(poolReg)),
	})
	defer pool.Close()

	p := newTestBowl()
	w := &Worker{
		Resolve:   func(string) (search.Problem, error) { return p, nil },
		Label:     "dup",
		BeatEvery: 5 * time.Millisecond,
		Faults:    dupEverything{},
	}
	stop := startWorker(t, pool, w)
	defer stop()
	waitUntil(t, "worker session", func() bool { return pool.Sessions() == 1 })

	ctx, _, _ := tracedCtx()
	const n = 10
	for i := 0; i < n; i++ {
		c := space.Config{i % 10, (3 * i) % 10}
		want := search.EvaluateFull(context.Background(), p, c.Clone())
		got := b.Evaluate(ctx, p, c)
		if got.RunTime != want.RunTime || got.Cost != want.Cost || got.Status != want.Status {
			t.Fatalf("eval %d under duplicate storm: got %+v want %+v", i, got, want)
		}
		if got.Degraded {
			t.Fatalf("eval %d degraded under duplicate storm: %+v", i, got)
		}
	}
	// Every task's result frame was duplicated: n surplus deliveries.
	waitUntil(t, "dup-result accounting", func() bool {
		return poolReg.Counter(obs.MetricRemoteDupResults).Value() >= n
	})
}

// TestPoolCloseBeforeBroker pins the flexible close order: closing the
// pool first detaches the dispatcher and later submissions degrade
// inline instead of deadlocking.
func TestPoolCloseBeforeBroker(t *testing.T) {
	b := externalBroker(2)
	defer b.Close()
	pool := NewPool(b, PoolOptions{})
	pool.Close()

	ctx, _, mem := tracedCtx()
	p := newTestBowl()
	want := search.EvaluateFull(context.Background(), p, space.Config{3, 7})
	got := b.Evaluate(ctx, p, space.Config{3, 7})
	if got.RunTime != want.RunTime || !got.Degraded {
		t.Fatalf("post-close evaluation: got %+v want run %v degraded", got, want.RunTime)
	}
	if countKindDetail(mem, obs.KindDegraded, "") == 0 {
		t.Fatal("no degraded event for a detached dispatcher")
	}
}

// BenchmarkRemoteDispatch measures loopback-transport dispatch: the
// cost of JSON framing, heartbeats, and lease accounting per
// evaluation.
func BenchmarkRemoteDispatch(bm *testing.B) {
	b := externalBroker(2)
	defer b.Close()
	pool := NewPool(b, PoolOptions{})
	defer pool.Close()
	p := newTestBowl()
	w := &Worker{
		Resolve:   func(string) (search.Problem, error) { return p, nil },
		BeatEvery: 10 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	dial := func(ctx context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		go func() { _, _ = pool.AddConn(server) }()
		return client, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx, dial)
	}()
	for pool.Sessions() == 0 {
		time.Sleep(time.Millisecond)
	}

	c := space.Config{3, 7}
	bctx := context.Background()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		out := b.Evaluate(bctx, p, c)
		if out.Status != search.StatusOK {
			bm.Fatalf("unexpected outcome %+v", out)
		}
	}
	bm.StopTimer()
	cancel()
	wg.Wait()
}
