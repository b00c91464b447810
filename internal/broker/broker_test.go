package broker_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
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

// newFaulty layers deterministic evaluation-fault injection and
// retry/timeout budgets over the bowl, so brokered trials cover failed,
// retried, and censored records on top of the dispatcher's own faults.
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
// bit-identical between inline and brokered runs. The excluded kinds
// (enqueue, broker-retry, hedge, degraded, pool events) are the
// documented scheduling-dependent family.
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
// that must fold identically; broker.* and pool.* metrics are
// scheduling-dependent by contract.
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
	tr := obs.New(obs.Multi(mem, obs.NewMetricsSink(reg)))
	ctx := obs.WithTracer(context.Background(), tr)
	res := drive(ctx, p)
	return res, reg, mem.Events()
}

// plan decides, per dispatch, whether the test dispatcher fails it
// (routing the task through Task.Fail) and how long it stalls first.
// Decisions are pure functions of (task, dispatch), so a retried or
// hedged copy rolls fresh ones.
type plan func(seq, dispatch int) (fail bool, stall time.Duration)

// serve attaches a test-local dispatcher to b, standing in for the
// remote pool without a transport: it pulls tasks with NextTask and
// serves each dispatch on its own goroutine, stalling and failing it
// per pl (nil: neither), evaluating p through one exactly-once guard,
// and settling through Complete. Dispatches that outlive the search
// land on the guard's cached outcome and lose the claim, as a
// straggling remote worker would. The returned stop detaches the
// dispatcher and waits for every dispatch goroutine.
func serve(b *broker.Broker, p search.Problem, pl plan) (stop func()) {
	guard := remote.NewEvalGuard()
	done := make(chan struct{})
	var wg sync.WaitGroup
	b.AttachDispatcher()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			h, ok := b.NextTask(done)
			if !ok {
				return
			}
			if h.Cancelled() || h.Settled() {
				continue
			}
			d := h.BeginDispatch()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var fail bool
				var stall time.Duration
				if pl != nil {
					fail, stall = pl(h.Seq(), d)
				}
				if stall > 0 {
					timer := time.NewTimer(stall)
					defer timer.Stop()
					select {
					case <-timer.C:
					case <-h.Context().Done():
						return
					case <-done:
						return
					}
				}
				if fail {
					h.Fail("test: injected dispatch failure")
					return
				}
				h.Complete(guard.Do(h.Seq(), func() search.Outcome {
					return search.EvaluateFull(h.Context(), p, h.Config())
				}))
			}()
		}
	}()
	return func() {
		b.DetachDispatcher()
		close(done)
		wg.Wait()
	}
}

// seededPlan fails and stalls dispatches at seeded rates, rolling each
// decision from its own (seed, task, dispatch) rng stream.
func seededPlan(seed int64, failRate, stallRate float64, stallFor time.Duration) plan {
	roll := func(tag string, seq, d int) float64 {
		key := fmt.Sprintf("dispatch|%d|%s|%d|%d", seed, tag, seq, d)
		return rng.New(rng.Hash64(key)).Float64()
	}
	return func(seq, d int) (bool, time.Duration) {
		var stall time.Duration
		if roll("stall", seq, d) < stallRate {
			stall = stallFor
		}
		return roll("fail", seq, d) < failRate, stall
	}
}

// chaosBroker is the standard broker of the invariance tests: a deep
// retry budget, so injected dispatch failures re-dispatch rather than
// degrade inline past the guard, and hedging tight enough that the
// plan's stalls trigger it.
func chaosBroker() *broker.Broker {
	return broker.New(broker.Options{
		Retries:    100,
		Backoff:    100 * time.Microsecond,
		HedgeAfter: 2 * time.Millisecond,
	})
}

// TestBrokerMatchesInline is the broker's headline invariant, free of
// any transport: a brokered search — with evaluation faults, dispatch
// failures and their retries, stalls, and hedging all active — produces
// the same Result, the same deterministic telemetry counters, and the
// same deterministic event stream as the inline search, for every
// algorithm.
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

			b := chaosBroker()
			p := newFaulty(seed)
			stop := serve(b, p, seededPlan(7, 0.2, 0.1, 5*time.Millisecond))
			gotRes, gotReg, gotEvents := run(alg.drive, b.Problem(p))
			stop() // join every dispatch so each pending telemetry event has landed
			b.Close()

			if err := crashtest.Compare(wantRes, gotRes); err != nil {
				t.Fatalf("brokered result differs from inline: %v", err)
			}
			for _, name := range []string{obs.MetricBrokerSubmits, obs.MetricBrokerRetries, obs.MetricBrokerHedges} {
				if gotReg.Counter(name).Value() == 0 {
					t.Fatalf("%s = 0: the dispatch path was not exercised", name)
				}
			}
			for _, name := range deterministicCounters {
				if w, g := wantReg.Counter(name).Value(), gotReg.Counter(name).Value(); w != g {
					t.Errorf("counter %s: inline %d, brokered %d", name, w, g)
				}
			}
			for _, name := range deterministicGauges {
				if w, g := wantReg.Gauge(name).Value(), gotReg.Gauge(name).Value(); w != g {
					t.Errorf("gauge %s: inline %v, brokered %v", name, w, g)
				}
			}
			we, ge := filterEvents(wantEvents), filterEvents(gotEvents)
			if len(we) != len(ge) {
				t.Fatalf("deterministic event count: inline %d, brokered %d", len(we), len(ge))
			}
			for i := range we {
				if we[i] != ge[i] {
					t.Fatalf("event %d differs:\ninline:   %+v\nbrokered: %+v", i, we[i], ge[i])
				}
			}
		})
	}
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

// TestHedgeDoubleCompletion pins the hedged double-completion contract:
// when both copies of a hedged task finish, exactly one result is used
// and the loser is charged to telemetry as one hedge-wasted event.
func TestHedgeDoubleCompletion(t *testing.T) {
	b := broker.New(broker.Options{HedgeAfter: 3 * time.Millisecond})
	defer b.Close()
	p := newBowl()
	// Stall only the first dispatch of every task, so the hedge copy
	// always wins and the stalled original always completes afterwards.
	stop := serve(b, p, func(seq, d int) (bool, time.Duration) {
		if d == 1 {
			return false, 60 * time.Millisecond
		}
		return false, 0
	})
	defer stop()
	reg := obs.NewRegistry()
	mem := &obs.MemorySink{}
	ctx := obs.WithTracer(context.Background(), obs.New(obs.Multi(mem, obs.NewMetricsSink(reg))))

	c := space.Config{3, 7, 1, 5}
	want := search.EvaluateFull(context.Background(), p, c)
	got := b.Evaluate(ctx, p, c)
	if got.RunTime != want.RunTime || got.Cost != want.Cost || got.Status != want.Status {
		t.Fatalf("hedged outcome differs: got %+v want %+v", got, want)
	}
	if got.Degraded {
		t.Fatalf("hedged outcome marked degraded: %+v", got)
	}

	// Let the stalled original wake up, lose the claim race, and record
	// its wasted work.
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

// TestDeadlinePropagation pins that a context deadline cuts a brokered
// evaluation short with an Interrupted outcome — it never blocks on a
// stalled dispatch and never fabricates a record.
func TestDeadlinePropagation(t *testing.T) {
	b := broker.New(broker.Options{})
	defer b.Close()
	stop := serve(b, newBowl(), func(int, int) (bool, time.Duration) { return false, 500 * time.Millisecond })
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := b.Evaluate(ctx, newBowl(), space.Config{0, 0, 0, 0})
	if !out.Interrupted() {
		t.Fatalf("expected interrupted outcome, got %+v", out)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("deadline did not propagate: evaluation blocked %v", el)
	}
}

// TestDetachWhileQueuedDegradesInline pins the liveness recheck: a
// task queued while a dispatcher was attached, but never pulled, is
// claimed inline by its submitter once the dispatcher detaches — marked
// Degraded, with the inline outcome.
func TestDetachWhileQueuedDegradesInline(t *testing.T) {
	b := broker.New(broker.Options{})
	defer b.Close()
	p := newBowl()
	c := space.Config{1, 2, 3, 4}
	want := search.EvaluateFull(context.Background(), p, c.Clone())

	b.AttachDispatcher() // nobody pulls: the task waits in the queue
	time.AfterFunc(20*time.Millisecond, b.DetachDispatcher)
	got := b.Evaluate(context.Background(), p, c.Clone())
	if got.RunTime != want.RunTime || got.Cost != want.Cost || !got.Degraded {
		t.Fatalf("got %+v, want the inline outcome %+v marked degraded", got, want)
	}
}

// TestRetriesExhaustedDegradeInline drives the retry pipeline to its
// end: every dispatch fails, each failure re-dispatches with backoff
// until the budget is spent, and the task then evaluates inline,
// marked Degraded, with the inline result.
func TestRetriesExhaustedDegradeInline(t *testing.T) {
	b := broker.New(broker.Options{Retries: 2, Backoff: 50 * time.Microsecond})
	defer b.Close()
	p := newBowl()
	stop := serve(b, p, func(int, int) (bool, time.Duration) { return true, 0 })
	defer stop()
	reg := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), obs.New(obs.NewMetricsSink(reg)))

	r := rng.New(5)
	const tasks = 4
	for i := 0; i < tasks; i++ {
		c := p.Space().Random(r)
		want := search.EvaluateFull(context.Background(), p, c.Clone())
		got := b.Evaluate(ctx, p, c)
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
// broker: a journaled brokered run (with in-flight tracking) matches
// the plain inline search, and interrupted brokered runs resume
// bit-identically.
func TestBrokerJournalReplay(t *testing.T) {
	const seed, nmax = 67, 30
	trial := crashtest.Trial{
		// Each run gets a fresh problem instance, so each gets its own
		// broker and dispatcher serving that instance.
		NewProblem: func() search.Problem {
			b := chaosBroker()
			p := newFaulty(seed)
			stop := serve(b, p, seededPlan(11, 0.2, 0.1, 5*time.Millisecond))
			t.Cleanup(func() {
				stop()
				b.Close()
			})
			return b.Problem(p)
		},
		Plain: func(ctx context.Context) *search.Result {
			return search.RS(ctx, newFaulty(seed), nmax, rng.New(seed))
		},
		Journaled: func(ctx context.Context, dir string, p search.Problem) (*search.Result, *journal.RunInfo, error) {
			return journal.RunRS(ctx, dir, p, nmax, seed, nil,
				journal.WrapOptions{CheckpointEvery: 4, TrackInFlight: true})
		},
	}
	n, err := trial.Cancellations(t.TempDir(), 6, 25, 19, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("brokered RS: %d interruption points resumed bit-identical", n)
}
