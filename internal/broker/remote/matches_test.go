package remote

import (
	"context"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faults"
	"repro/internal/journal/crashtest"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// bowl4 mirrors the broker invariance tests' 4-dimensional problem.
type bowl4 struct {
	spc    *space.Space
	target []int
}

func newBowl4() *bowl4 {
	spc := space.New(
		space.NewIntRange("a", 0, 9),
		space.NewIntRange("b", 0, 9),
		space.NewIntRange("c", 0, 9),
		space.NewIntRange("d", 0, 9),
	)
	return &bowl4{spc: spc, target: []int{3, 7, 1, 5}}
}

func (b *bowl4) Name() string        { return "bowl" }
func (b *bowl4) Space() *space.Space { return b.spc }
func (b *bowl4) Evaluate(c space.Config) (float64, float64) {
	d := 0.0
	for i, t := range b.target {
		diff := float64(c[i] - t)
		d += diff * diff
	}
	run := 1 + d
	return run, run + 0.5
}

// newFaulty4 layers deterministic evaluation-fault injection and
// retry/timeout budgets over the bowl, exactly as the broker invariance
// tests do, so remote trials cover failed, retried, and censored
// records on top of the transport's own network faults.
func newFaulty4(seed uint64) search.Problem {
	rates := faults.Rates{CompileFail: 0.08, Crash: 0.1, Hang: 0.05}
	return search.NewResilient(faults.Wrap(newBowl4(), rates, seed),
		search.ResilientOptions{Retries: 2, Timeout: 120})
}

// quadSurrogate is the deterministic surrogate of the crashtest harness.
type quadSurrogate struct{}

func (quadSurrogate) Predict(x []float64) float64 {
	s := 1.0
	for i, v := range x {
		d := v - 0.35
		s += d * d * float64(i+1)
	}
	return s
}

// deterministicKinds are the event kinds whose emission must be
// bit-identical between inline and remote runs. The excluded kinds
// (enqueue, broker-retry, degraded, lease, heartbeat, reconnect,
// remote-worker) are the scheduling-dependent family: network faults
// move evaluations around, and these events record the moves.
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

func filterDeterministic(events []obs.Event) []obs.Event {
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
// that must fold identically; broker.* and broker.remote.* metrics are
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

// matchFaults is the seeded network-fault profile of the headline test:
// drops, delays, duplicates, adjacent reorders, and short partitions on
// every connection, in both directions.
func matchFaults(seed int64) SeededNetFaults {
	return SeededNetFaults{
		Seed:          seed,
		DropRate:      0.05,
		DelayRate:     0.08,
		DelayFor:      500 * time.Microsecond,
		DupRate:       0.08,
		ReorderRate:   0.08,
		PartitionRate: 0.02,
		PartitionLen:  3,
	}
}

// TestRemoteMatchesInline is the headline invariant of the remote
// transport: a search whose evaluations are served by remote workers
// over fault-injected connections — frames dropped, delayed,
// duplicated, reordered, and partitioned; leases expiring and tasks
// re-dispatched — produces the same Result, the same deterministic
// telemetry counters, and the same deterministic event stream as the
// inline search, for every algorithm.
//
// The topology is the loopback one: two worker sessions sharing one
// EvalGuard and one problem instance, so the exactly-once guard spans
// sessions and the stateful fault injector advances once per logical
// evaluation in submission order — the property that preserves CRN
// bit-identity (see DESIGN §8).
func TestRemoteMatchesInline(t *testing.T) {
	const seed, nmax = 31, 40
	type driveFunc func(ctx context.Context, p search.Problem) *search.Result
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
			return search.RSp(ctx, p, quadSurrogate{},
				search.RSpOptions{NMax: nmax, PoolSize: 300, DeltaPct: 30},
				rng.NewNamed(seed, "stream"), rng.NewNamed(seed, "pool"))
		}},
		{"RSb", func(ctx context.Context, p search.Problem) *search.Result {
			return search.RSb(ctx, p, quadSurrogate{},
				search.RSbOptions{NMax: nmax, PoolSize: 300}, rng.NewNamed(seed, "pool"))
		}},
	}
	for _, alg := range algos {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			wantReg := obs.NewRegistry()
			wantMem := &obs.MemorySink{}
			wantCtx := obs.WithTracer(context.Background(),
				obs.New(obs.Multi(wantMem, obs.NewMetricsSink(wantReg))))
			wantRes := alg.drive(wantCtx, newFaulty4(seed))

			// The remote run: one shared problem instance and one shared
			// exactly-once guard behind two fault-injected worker sessions.
			// The workers carry the submission tracer so Resilient-layer
			// telemetry lands in the same sink it does inline.
			gotReg := obs.NewRegistry()
			gotMem := &obs.MemorySink{}
			tr := obs.New(obs.Multi(gotMem, obs.NewMetricsSink(gotReg)))
			gotCtx := obs.WithTracer(context.Background(), tr)

			b := broker.New(broker.Options{
				Retries: 100, // lease reclaims re-dispatch; never degrade inline
				Backoff: 100 * time.Microsecond,
			})
			pool := NewPool(b, PoolOptions{
				LeaseTicks:     4,
				TickEvery:      5 * time.Millisecond,
				MaxMissedBeats: 60, // partitions drop frames; sessions must survive
				Faults:         matchFaults(1009),
			})
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
					Tracer:    tr,
				}
				stops = append(stops, startWorker(t, pool, w))
			}
			waitUntil(t, "two worker sessions", func() bool { return pool.Sessions() == 2 })

			gotRes := alg.drive(gotCtx, b.Problem(p))

			for _, stop := range stops {
				stop()
			}
			pool.Close()
			b.Close()

			if v := gotReg.Counter(obs.MetricRemoteLeases).Value(); v == 0 {
				t.Fatal("no remote leases granted; the remote path was not exercised")
			}
			if err := crashtest.Compare(wantRes, gotRes); err != nil {
				t.Fatalf("remote result differs from inline: %v", err)
			}
			for _, name := range deterministicCounters {
				if w, g := wantReg.Counter(name).Value(), gotReg.Counter(name).Value(); w != g {
					t.Errorf("counter %s: inline %d, remote %d", name, w, g)
				}
			}
			for _, name := range deterministicGauges {
				if w, g := wantReg.Gauge(name).Value(), gotReg.Gauge(name).Value(); w != g {
					t.Errorf("gauge %s: inline %v, remote %v", name, w, g)
				}
			}
			we, ge := filterDeterministic(wantMem.Events()), filterDeterministic(gotMem.Events())
			if len(we) != len(ge) {
				t.Fatalf("deterministic event count: inline %d, remote %d", len(we), len(ge))
			}
			for i := range we {
				if we[i] != ge[i] {
					t.Fatalf("event %d differs:\ninline: %+v\nremote: %+v", i, we[i], ge[i])
				}
			}
		})
	}
}
