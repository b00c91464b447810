//lint:file-ignore ctxflow chaos harness: each trial roots its own context to model an independent process lifetime

package chaostest

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/journal/crashtest"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
)

// RemoteTrial is one network-chaos configuration for the remote worker
// transport: a full search served over loopback connections whose frames
// are dropped, delayed, duplicated, reordered, and partitioned, with
// optional connection kills mid-task. The asserted properties are
// termination under a watchdog and a result bit-identical to the inline
// run (see the package comment), plus exactly-once evaluation:
// workers share one problem instance and one EvalGuard, so any double
// evaluation would advance the stateful fault injector twice and show up
// as a result divergence.
type RemoteTrial struct {
	// Seed seeds the search and the evaluation faults.
	Seed uint64
	// NMax is the search budget.
	NMax int
	// Workers is the number of reconnecting worker loops.
	Workers int
	// Lease and failure-detector shape.
	LeaseTicks     int
	TickEvery      time.Duration
	MaxMissedBeats int
	BeatEvery      time.Duration
	// Net is the seeded network-fault profile, applied independently to
	// the pool side and the worker side of every connection.
	Net remote.SeededNetFaults
	// KillEvery, when positive, abruptly closes the newest live
	// connection after every KillEvery completed evaluations — the
	// worker-killed-mid-task campaign. Workers redial; the EvalGuard
	// replays any evaluation whose result frame died with the
	// connection.
	KillEvery int
	// ForceFailure makes Run report a synthetic failure after the trial
	// completes (regardless of outcome), exercising the flight-recorder
	// dump path end to end. Test hook only: the dump of a deliberately
	// failed trial must contain the failing run's full span chains.
	ForceFailure bool
}

// RandomRemoteTrial derives remote trial i of a campaign from named rng
// streams, so every knob is reproducible from (campaignSeed, i).
func RandomRemoteTrial(campaignSeed uint64, i int) RemoteTrial {
	r := rng.New(rng.Hash64(fmt.Sprintf("remote-chaos|%d|%d", campaignSeed, i)))
	t := RemoteTrial{
		Seed:           campaignSeed + uint64(i)*1000,
		NMax:           18 + r.Intn(14),
		Workers:        1 + r.Intn(3),
		LeaseTicks:     2 + r.Intn(4),
		TickEvery:      time.Duration(2+r.Intn(4)) * time.Millisecond,
		MaxMissedBeats: 4 + r.Intn(12),
		BeatEvery:      time.Duration(1+r.Intn(3)) * time.Millisecond,
		Net: remote.SeededNetFaults{
			Seed:          int64(campaignSeed)*31 + int64(i),
			DropRate:      r.Float64() * 0.12,
			DelayRate:     r.Float64() * 0.15,
			DelayFor:      500 * time.Microsecond,
			DupRate:       r.Float64() * 0.2,
			ReorderRate:   r.Float64() * 0.2,
			PartitionRate: r.Float64() * 0.06,
			PartitionLen:  2 + r.Intn(4),
		},
	}
	if r.Float64() < 0.4 {
		t.KillEvery = 4 + r.Intn(8)
	}
	return t
}

// Run executes the remote trial: inline reference first, then the same
// search served by fault-injected remote workers, asserting termination
// and a bit-identical result.
func (t RemoteTrial) Run() error {
	ref := search.RS(context.Background(), newFaulty(t.Seed), t.NMax, rng.New(t.Seed))

	pool := remote.NewPool(remote.PoolOptions{
		// A deep retry budget: lease reclaims, dead sessions, and
		// no-session windows re-dispatch rather than degrade inline, so
		// the shared problem instance is only ever advanced through the
		// exactly-once guard.
		Retries:        100,
		Backoff:        100 * time.Microsecond,
		LeaseTicks:     t.LeaseTicks,
		TickEvery:      t.TickEvery,
		MaxMissedBeats: t.MaxMissedBeats,
		Faults:         t.Net,
	})
	defer pool.Close()

	p := newFaulty(t.Seed)
	guard := remote.NewEvalGuard()

	// The always-on flight recorder and the trial's trace context: every
	// span of the run's causal chains lands in the ring, and a failed
	// trial dumps it as its JSONL narrative.
	rec := obs.NewRecorder(0)
	flight := "remote-chaos-" + strconv.FormatUint(t.Seed, 10)
	mem := &obs.MemorySink{}
	tr := obs.New(obs.Multi(mem, rec))

	// Track live connections so the killer can sever the newest one.
	var connMu sync.Mutex
	var conns []net.Conn

	// Teardown order matters: defers run LIFO, so cancel (declared
	// last) fires before the join.
	var wwg sync.WaitGroup
	wctx, cancel := context.WithCancel(context.Background())
	defer wwg.Wait()
	defer cancel()
	for i := 0; i < t.Workers; i++ {
		w := &remote.Worker{
			Resolve:     func(string) (search.Problem, error) { return p, nil },
			Guard:       guard,
			Label:       fmt.Sprintf("chaos-w%d", i),
			BeatEvery:   t.BeatEvery,
			Backoff:     time.Millisecond,
			BackoffCap:  10 * time.Millisecond,
			MaxAttempts: 1 << 20, // killed connections must never exhaust the dial budget
			Faults:      t.Net,
			Tracer:      tr, // worker-eval spans join the recorder's chains
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
			connMu.Lock()
			conns = append(conns, client)
			connMu.Unlock()
			return client, nil
		}
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			_ = w.Run(wctx, dial)
		}()
	}

	ctx := obs.WithTracer(context.Background(), tr)
	ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: flight, SpanID: obs.RootSpanID})
	done := make(chan *search.Result, 1)
	go func() {
		done <- search.RS(ctx, pool.Problem(p), t.NMax, rng.New(t.Seed))
	}()

	// The connection killer: after every KillEvery completed evaluations,
	// sever the newest live connection mid-whatever-it-is-doing.
	stopKill := make(chan struct{})
	defer close(stopKill)
	if t.KillEvery > 0 {
		go func() {
			killed := 0
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopKill:
					return
				case <-tick.C:
				}
				if len(mem.ByKind(obs.KindEval)) < (killed+1)*t.KillEvery {
					continue
				}
				connMu.Lock()
				if n := len(conns); n > 0 {
					_ = conns[n-1].Close()
					conns = conns[:n-1]
				}
				connMu.Unlock()
				killed++
			}
		}()
	}

	select {
	case res := <-done:
		if err := crashtest.Compare(ref, res); err != nil {
			return flightFail(rec, flight, fmt.Errorf("remote chaos trial %+v: %w", t, err))
		}
		if t.ForceFailure {
			return flightFail(rec, flight,
				fmt.Errorf("remote chaos trial %+v: failure forced to validate the flight-recorder dump", t))
		}
		return nil
	case <-time.After(watchdogTimeout()):
		return flightFail(rec, flight,
			fmt.Errorf("remote chaos trial %+v: search did not terminate within %v", t, watchdogTimeout()))
	}
}
