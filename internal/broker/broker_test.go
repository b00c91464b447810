// Package broker_test pins the submission contract of the remote worker
// pool (internal/broker/remote) from the outside — hedging, deadlines,
// the retry budget, cancellation, and journal replay — against pools
// served by in-process workers over loopback pipes.
package broker_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/journal/crashtest"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// bowl is the deterministic synthetic problem of the search tests.
type bowl struct {
	spc    *space.Space
	target []int
}

func newBowl() *bowl {
	spc := space.New(
		space.NewIntRange("a", 0, 9),
		space.NewIntRange("b", 0, 9),
		space.NewIntRange("c", 0, 9),
		space.NewIntRange("d", 0, 9),
	)
	return &bowl{spc: spc, target: []int{3, 7, 1, 5}}
}

func (b *bowl) Name() string        { return "bowl" }
func (b *bowl) Space() *space.Space { return b.spc }
func (b *bowl) Evaluate(c space.Config) (float64, float64) {
	d := 0.0
	for i, t := range b.target {
		diff := float64(c[i] - t)
		d += diff * diff
	}
	run := 1 + d
	return run, run + 0.5
}

// stalledBowl is the bowl behind a worker that stalls every evaluation
// until Release — a straggling or wedged worker.
type stalledBowl struct {
	*bowl
	release chan struct{}
	once    sync.Once
}

func (s *stalledBowl) Evaluate(c space.Config) (float64, float64) {
	<-s.release
	return s.bowl.Evaluate(c)
}

// Release lets every stalled and later evaluation finish.
func (s *stalledBowl) Release() { s.once.Do(func() { close(s.release) }) }

// stall returns a stalled bowl released at test cleanup at the latest.
func stall(t *testing.T) *stalledBowl {
	s := &stalledBowl{bowl: newBowl(), release: make(chan struct{})}
	t.Cleanup(s.Release)
	return s
}

// newFaulty layers deterministic evaluation-fault injection and
// retry/timeout budgets over the bowl, so served trials cover failed,
// retried, and censored records on top of the transport's own faults.
func newFaulty(seed uint64) search.Problem {
	rates := faults.Rates{CompileFail: 0.08, Crash: 0.1, Hang: 0.05}
	return search.NewResilient(faults.Wrap(newBowl(), rates, seed),
		search.ResilientOptions{Retries: 2, Timeout: 120})
}

// quadModel is the deterministic surrogate of the crashtest harness.
type quadModel struct{}

func (quadModel) Predict(x []float64) float64 {
	s := 1.0
	for i, v := range x {
		d := v - 0.35
		s += d * d * float64(i+1)
	}
	return s
}

// deterministicKinds are the event kinds whose emission must be
// bit-identical between inline and served runs. The excluded kinds
// (enqueue, broker-retry, hedge, degraded, lease and pool events) are
// the documented scheduling-dependent family.
var deterministicKinds = map[obs.Kind]bool{
	obs.KindSearchStart:  true,
	obs.KindSearchFinish: true,
	obs.KindEval:         true,
	obs.KindSkip:         true,
	obs.KindCacheHit:     true,
	obs.KindRetry:        true,
	obs.KindCensor:       true,
	obs.KindTimeout:      true,
	obs.KindFault:        true,
}

func filterEvents(events []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for _, e := range events {
		if deterministicKinds[e.Kind] {
			e.Dur = 0
			out = append(out, e)
		}
	}
	return out
}

// deterministicCounters and deterministicGauges are the metric names
// that must fold identically; broker.* metrics are scheduling-dependent
// by contract.
var deterministicCounters = []string{
	obs.MetricEvals,
	obs.MetricEvalsPrefix + "ok",
	obs.MetricEvalsPrefix + "censored",
	obs.MetricEvalsPrefix + "failed",
	obs.MetricRetries,
	obs.MetricSkips,
	obs.MetricCacheHits,
	obs.MetricCensorKills,
	obs.MetricFaults,
	obs.MetricSearches,
}

var deterministicGauges = []string{obs.MetricBestRunTime, obs.MetricSearchClock}

type driveFunc func(ctx context.Context, p search.Problem) *search.Result

// run executes drive over p with a memory sink and metrics registry
// attached.
func run(drive driveFunc, p search.Problem) (*search.Result, *obs.Registry, []obs.Event) {
	reg := obs.NewRegistry()
	mem := &obs.MemorySink{}
	ctx := obs.WithTracer(context.Background(), obs.New(obs.Multi(mem, obs.NewMetricsSink(reg))))
	res := drive(ctx, p)
	return res, reg, mem.Events()
}

// flaky returns a worker over p that fails and stalls dispatches before
// they reach guard. Its first dispatch fails. A search's first dispatch
// is the primary of task 0, so one worker's failure always lands on a
// primary dispatch of a task that has not settled. Every later dispatch
// is held until reg has counted a retry and a hedge, so task 0 cannot
// settle before the failure is retried and its hedge timer has fired.
// After that, dispatches stall and fail at seeded rates, each decision
// rolled from its own (seed, label, dispatch) rng stream. A failed
// dispatch answers Interrupted, so the submitter re-dispatches under its
// retry budget; a stalled one sleeps first, so the submitter may hedge
// it. Neither touches what the evaluation returns.
func flaky(p search.Problem, guard *remote.EvalGuard, label string, reg *obs.Registry,
	seed int64, failRate, stallRate float64, stallFor time.Duration) *remote.Worker {

	w := worker(p)
	w.Guard, w.Label = guard, label
	var dispatches atomic.Int64
	w.Resolve = func(string) (search.Problem, error) {
		d := dispatches.Add(1)
		if d == 1 {
			return nil, errors.New("test: injected dispatch failure")
		}
		for reg.Counter(obs.MetricBrokerRetries).Value() == 0 || reg.Counter(obs.MetricBrokerHedges).Value() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		roll := func(tag string) float64 {
			key := fmt.Sprintf("dispatch|%d|%s|%s|%d", seed, label, tag, d)
			return rng.New(rng.Hash64(key)).Float64()
		}
		if roll("stall") < stallRate {
			time.Sleep(stallFor)
		}
		if roll("fail") < failRate {
			return nil, errors.New("test: injected dispatch failure")
		}
		return p, nil
	}
	return w
}

// newPool returns a pool closed at test cleanup.
func newPool(t *testing.T, opt remote.PoolOptions) *remote.Pool {
	pool := remote.NewPool(opt)
	t.Cleanup(pool.Close)
	return pool
}

// worker returns a worker that resolves every task to p.
func worker(p search.Problem) *remote.Worker {
	return &remote.Worker{
		Resolve:   func(string) (search.Problem, error) { return p, nil },
		BeatEvery: 2 * time.Millisecond,
	}
}

// serve connects w to pool over a loopback pipe and returns once its
// session is live. The worker stops at test cleanup.
func serve(t *testing.T, pool *remote.Pool, w *remote.Worker) {
	t.Helper()
	want := pool.Sessions() + 1
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx, func(ctx context.Context) (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				if _, err := pool.AddConn(server); err != nil {
					_ = server.Close() // pool closed: the worker's dial loop retries
				}
			}()
			return client, nil
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitFor(t, "worker session", func() bool { return pool.Sessions() >= want })
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBrokerMatchesInline is the submission contract's headline
// invariant, free of network faults: a served search — with evaluation
// faults, failed dispatches and their retries, stalled workers, and
// hedging all active — produces the same Result, the same deterministic
// telemetry counters, and the same deterministic event stream as the
// inline search, for every algorithm.
func TestBrokerMatchesInline(t *testing.T) {
	const seed, nmax = 31, 40
	algos := []struct {
		name  string
		drive driveFunc
	}{
		{"RS", func(ctx context.Context, p search.Problem) *search.Result {
			return search.RS(ctx, p, nmax, rng.New(seed))
		}},
		{"SA", func(ctx context.Context, p search.Problem) *search.Result {
			return search.Drive(ctx, p, search.NewAnneal(p.Space(), rng.NewNamed(seed, "sa"), 0.9), nmax)
		}},
		{"GA", func(ctx context.Context, p search.Problem) *search.Result {
			return search.Drive(ctx, p, search.NewGenetic(p.Space(), rng.NewNamed(seed, "ga"), 8, 0.2), nmax)
		}},
		{"PS", func(ctx context.Context, p search.Problem) *search.Result {
			return search.Drive(ctx, p, search.NewPattern(p.Space(), rng.NewNamed(seed, "ps"), 4), nmax)
		}},
		{"RSp", func(ctx context.Context, p search.Problem) *search.Result {
			return search.RSp(ctx, p, quadModel{},
				search.RSpOptions{NMax: nmax, PoolSize: 300, DeltaPct: 30},
				rng.NewNamed(seed, "stream"), rng.NewNamed(seed, "pool"))
		}},
		{"RSb", func(ctx context.Context, p search.Problem) *search.Result {
			return search.RSb(ctx, p, quadModel{},
				search.RSbOptions{NMax: nmax, PoolSize: 300}, rng.NewNamed(seed, "pool"))
		}},
	}
	for _, alg := range algos {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			wantRes, wantReg, wantEvents := run(alg.drive, newFaulty(seed))

			// The served run: two flaky workers sharing one problem
			// instance and one exactly-once guard, carrying the
			// submission tracer so Resilient-layer telemetry lands in
			// the same sink it does inline. A deep retry budget keeps
			// failed dispatches re-dispatching rather than degrading
			// inline past the guard.
			gotReg := obs.NewRegistry()
			gotMem := &obs.MemorySink{}
			tr := obs.New(obs.Multi(gotMem, obs.NewMetricsSink(gotReg)))
			pool := remote.NewPool(remote.PoolOptions{
				Retries:    100,
				Backoff:    100 * time.Microsecond,
				HedgeAfter: 2 * time.Millisecond,
			})
			p := newFaulty(seed)
			guard := remote.NewEvalGuard()
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for _, label := range []string{"w1", "w2"} {
				w := flaky(p, guard, label, gotReg, 7, 0.2, 0.1, 5*time.Millisecond)
				w.Tracer = tr
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = w.Run(ctx, func(context.Context) (net.Conn, error) {
						client, server := net.Pipe()
						go func() {
							if _, err := pool.AddConn(server); err != nil {
								_ = server.Close()
							}
						}()
						return client, nil
					})
				}()
			}
			waitFor(t, "two worker sessions", func() bool { return pool.Sessions() == 2 })
			gotRes := alg.drive(obs.WithTracer(context.Background(), tr), pool.Problem(p))
			// Join both workers so each pending telemetry event has landed.
			cancel()
			wg.Wait()
			pool.Close()
			gotEvents := gotMem.Events()

			if err := crashtest.Compare(wantRes, gotRes); err != nil {
				t.Fatalf("served result differs from inline: %v", err)
			}
			for _, name := range []string{obs.MetricBrokerSubmits, obs.MetricBrokerRetries, obs.MetricBrokerHedges} {
				if gotReg.Counter(name).Value() == 0 {
					t.Fatalf("%s = 0: the dispatch path was not exercised", name)
				}
			}
			for _, name := range deterministicCounters {
				if w, g := wantReg.Counter(name).Value(), gotReg.Counter(name).Value(); w != g {
					t.Errorf("counter %s: inline %d, served %d", name, w, g)
				}
			}
			for _, name := range deterministicGauges {
				if w, g := wantReg.Gauge(name).Value(), gotReg.Gauge(name).Value(); w != g {
					t.Errorf("gauge %s: inline %v, served %v", name, w, g)
				}
			}
			we, ge := filterEvents(wantEvents), filterEvents(gotEvents)
			if len(we) != len(ge) {
				t.Fatalf("deterministic event count: inline %d, served %d", len(we), len(ge))
			}
			for i := range we {
				if we[i] != ge[i] {
					t.Fatalf("event %d differs:\ninline: %+v\nserved: %+v", i, we[i], ge[i])
				}
			}
		})
	}
}

// TestHedgeDoubleCompletion pins the hedged double-completion contract:
// when both copies of a hedged task finish, exactly one result is used
// and the loser is charged to telemetry as one hedge-wasted event.
func TestHedgeDoubleCompletion(t *testing.T) {
	pool := newPool(t, remote.PoolOptions{HedgeAfter: 3 * time.Millisecond})
	p := newBowl()
	// The straggler connects first, so it takes every original; the
	// hedge copy always goes to the fast worker and wins, and the
	// straggler completes afterwards.
	straggler := stall(t)
	serve(t, pool, worker(straggler))
	serve(t, pool, worker(p))
	reg := obs.NewRegistry()
	mem := &obs.MemorySink{}
	ctx := obs.WithTracer(context.Background(), obs.New(obs.Multi(mem, obs.NewMetricsSink(reg))))

	c := space.Config{3, 7, 1, 5}
	want := search.EvaluateFull(context.Background(), p, c)
	got := pool.Evaluate(ctx, p, c)
	if got.RunTime != want.RunTime || got.Cost != want.Cost || got.Status != want.Status {
		t.Fatalf("hedged outcome differs: got %+v want %+v", got, want)
	}
	if got.Degraded {
		t.Fatalf("hedged outcome marked degraded: %+v", got)
	}

	// Let the straggler finish, lose the claim race, and record its
	// wasted work.
	straggler.Release()
	waitFor(t, "the stalled copy to lose the claim", func() bool {
		return reg.Counter(obs.MetricBrokerHedgeWasted).Value() > 0
	})
	hedges := mem.ByKind(obs.KindHedge)
	var issued, wasted int
	for _, e := range hedges {
		if e.Detail == "wasted" {
			wasted++
		} else {
			issued++
		}
	}
	if issued != 1 || wasted != 1 {
		t.Fatalf("hedge events: %d issued, %d wasted, want 1 and 1 (events: %+v)", issued, wasted, hedges)
	}
	if v := reg.Counter(obs.MetricBrokerHedgeWasted).Value(); v != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricBrokerHedgeWasted, v)
	}
}

// TestDeadlinePropagation pins that a context deadline cuts an
// evaluation short with an Interrupted outcome — it never blocks on a
// stalled worker and never fabricates a record.
func TestDeadlinePropagation(t *testing.T) {
	pool := newPool(t, remote.PoolOptions{})
	serve(t, pool, worker(stall(t)))

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := pool.Evaluate(ctx, newBowl(), space.Config{0, 0, 0, 0})
	if !out.Interrupted() {
		t.Fatalf("expected interrupted outcome, got %+v", out)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("deadline did not propagate: evaluation blocked %v", el)
	}
}

// TestDetachWhileQueuedDegradesInline pins that losing the last way to
// a worker never strands a waiting submission: a submitter still
// waiting for a worker when the pool closes is claimed inline — marked
// Degraded, with the inline outcome and a degraded event.
func TestDetachWhileQueuedDegradesInline(t *testing.T) {
	// No worker ever connects and the retry budget outlasts the test, so
	// the submitter waits in its re-dispatch loop until Close.
	pool := newPool(t, remote.PoolOptions{Retries: 1 << 20, Backoff: time.Millisecond})
	reg := obs.NewRegistry()
	mem := &obs.MemorySink{}
	ctx := obs.WithTracer(context.Background(), obs.New(obs.Multi(mem, obs.NewMetricsSink(reg))))
	p := newBowl()
	c := space.Config{1, 2, 3, 4}
	want := search.EvaluateFull(context.Background(), p, c.Clone())

	waiting := make(chan search.Outcome, 1)
	go func() { waiting <- pool.Evaluate(ctx, p, c.Clone()) }()
	waitFor(t, "the submitter to retry", func() bool {
		return reg.Counter(obs.MetricBrokerRetries).Value() > 0
	})
	pool.Close()

	got := <-waiting
	if got.RunTime != want.RunTime || got.Cost != want.Cost || !got.Degraded {
		t.Fatalf("got %+v, want the inline outcome %+v marked degraded", got, want)
	}
	if n := len(mem.ByKind(obs.KindDegraded)); n != 1 {
		t.Fatalf("degraded events = %d, want 1: %+v", n, mem.ByKind(obs.KindDegraded))
	}
}

// TestRetriesExhaustedDegradeInline drives the retry budget to its
// end: every dispatch fails (the worker cannot resolve the problem), each
// failure re-dispatches with backoff until the budget is spent, and the
// task then evaluates inline, marked Degraded, with the inline result.
func TestRetriesExhaustedDegradeInline(t *testing.T) {
	pool := newPool(t, remote.PoolOptions{Retries: 2, Backoff: 50 * time.Microsecond})
	p := newBowl()
	unresolvable := worker(p)
	unresolvable.Resolve = func(string) (search.Problem, error) {
		return nil, errors.New("test: problem unknown to this worker")
	}
	serve(t, pool, unresolvable)
	reg := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), obs.New(obs.NewMetricsSink(reg)))

	r := rng.New(5)
	const tasks = 4
	for i := 0; i < tasks; i++ {
		c := p.Space().Random(r)
		want := search.EvaluateFull(context.Background(), p, c.Clone())
		got := pool.Evaluate(ctx, p, c)
		if got.RunTime != want.RunTime || got.Cost != want.Cost || got.Status != want.Status {
			t.Fatalf("task %d: outcome differs: got %+v want %+v", i, got, want)
		}
		if !got.Degraded {
			t.Fatalf("task %d: expected degraded outcome with every dispatch failing, got %+v", i, got)
		}
	}
	if v := reg.Counter(obs.MetricBrokerRetries).Value(); v != 2*tasks {
		t.Fatalf("%s = %d, want %d (two re-dispatches per task)", obs.MetricBrokerRetries, v, 2*tasks)
	}
}

// TestBrokerJournalReplay proves the journal layer composes with the
// pool: a journaled served run (with in-flight tracking, network
// faults, and hedging) matches the plain inline search, and interrupted
// served runs resume bit-identically.
func TestBrokerJournalReplay(t *testing.T) {
	const seed, nmax = 67, 30
	netFaults := remote.SeededNetFaults{
		Seed: 11, DropRate: 0.05, DelayRate: 0.1, DelayFor: 500 * time.Microsecond,
		DupRate: 0.08, ReorderRate: 0.08,
	}
	trial := crashtest.Trial{
		// Each run gets a fresh problem instance, so each gets its own
		// pool and two workers sharing that instance and one guard.
		NewProblem: func() search.Problem {
			pool := newPool(t, remote.PoolOptions{
				Retries:        100, // re-dispatch; never degrade past the guard
				Backoff:        100 * time.Microsecond,
				HedgeAfter:     2 * time.Millisecond,
				LeaseTicks:     4,
				TickEvery:      5 * time.Millisecond,
				MaxMissedBeats: 60,
				Faults:         netFaults,
			})
			p := newFaulty(seed)
			guard := remote.NewEvalGuard()
			for _, label := range []string{"w1", "w2"} {
				w := worker(p)
				w.Guard, w.Label, w.Faults = guard, label, netFaults
				serve(t, pool, w)
			}
			return pool.Problem(p)
		},
		Plain: func(ctx context.Context) *search.Result {
			return search.RS(ctx, newFaulty(seed), nmax, rng.New(seed))
		},
		Journaled: func(ctx context.Context, dir string, p search.Problem) (*search.Result, *journal.RunInfo, error) {
			return crashtest.JournaledRS(ctx, dir, p, nmax, seed, journal.WrapOptions{TrackInFlight: true})
		},
	}
	n, err := trial.Cancellations(t.TempDir(), 6, 25, 19)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("served RS: %d interruption points resumed bit-identical", n)
}
