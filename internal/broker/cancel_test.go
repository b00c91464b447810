package broker_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// countingBowl counts evaluations, so cancellation tests can assert
// that an interrupted submission never reached the problem.
type countingBowl struct {
	*bowl
	evals atomic.Int64
}

func (c *countingBowl) Evaluate(cfg space.Config) (float64, float64) {
	c.evals.Add(1)
	return c.bowl.Evaluate(cfg)
}

// TestCancelledBeforeSubmit pins the deterministic half of the
// cancellation race: a context cancelled before Evaluate is called
// returns Interrupted without enqueueing — the problem is never
// evaluated and no enqueue is traced — even with a dispatcher attached
// that would have served the task.
func TestCancelledBeforeSubmit(t *testing.T) {
	b := broker.New(broker.Options{})
	defer b.Close()
	p := &countingBowl{bowl: newBowl()}
	stop := serve(b, p, nil)
	defer stop()
	reg := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), obs.New(obs.NewMetricsSink(reg)))

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	out := b.Evaluate(cctx, p, space.Config{1, 1, 1, 1})
	if !out.Interrupted() {
		t.Fatalf("cancelled submission returned %+v, want Interrupted", out)
	}
	if got := p.evals.Load(); got != 0 {
		t.Fatalf("cancelled submission reached the problem: %d evaluations", got)
	}
	if v := reg.Counter(obs.MetricBrokerSubmits).Value(); v != 0 {
		t.Fatalf("%s = %d, want 0: a pre-cancelled submission must not be enqueued", obs.MetricBrokerSubmits, v)
	}
}

// TestCancelRace hammers the nondeterministic half: many concurrent
// submissions against a stalling dispatcher while half their contexts
// are cancelled concurrently. Whatever interleaving the scheduler
// picks, every submission must settle to exactly one of two pinned
// outcomes — Interrupted, or the bit-identical inline result — with no
// hangs, and the broker still serving afterwards. Run under -race this
// doubles as the memory-model check for the claim guard and the
// cancellation flag.
func TestCancelRace(t *testing.T) {
	b := broker.New(broker.Options{})
	defer b.Close()
	p := &countingBowl{bowl: newBowl()}
	stop := serve(b, p, func(int, int) (bool, time.Duration) { return false, 5 * time.Millisecond })
	defer stop()

	c := space.Config{1, 2, 3, 4}
	want := search.EvaluateFull(context.Background(), newBowl(), c.Clone())

	const n = 32
	outs := make([]search.Outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 1 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				// Cancel concurrently with submission: sometimes before the
				// pre-check, sometimes mid-enqueue, sometimes mid-wait.
				go func() {
					time.Sleep(time.Duration(i%5) * time.Millisecond)
					cancel()
				}()
				defer cancel()
			}
			outs[i] = b.Evaluate(ctx, p, c.Clone())
		}()
	}
	wg.Wait()

	completed := 0
	for i, out := range outs {
		switch {
		case out.Interrupted():
			// Pinned outcome A: the cancellation won.
		case out.RunTime == want.RunTime && out.Cost == want.Cost && out.Status == search.StatusOK:
			// Pinned outcome B: the evaluation won, bit-identical to inline.
			completed++
			if out.Degraded {
				t.Errorf("submission %d: served outcome marked degraded: %+v", i, out)
			}
		default:
			t.Errorf("submission %d: outcome %+v is neither Interrupted nor the inline result %+v", i, out, want)
		}
	}
	// The uncancelled half can never be interrupted: they all complete.
	if completed < n/2 {
		t.Fatalf("%d/%d submissions completed, want >= %d (uncancelled half)", completed, n, n/2)
	}
	if evals := p.evals.Load(); evals > int64(n) {
		t.Fatalf("%d evaluations for %d submissions: some task ran twice", evals, n)
	}

	// The broker survives the storm: a fresh submission still completes.
	out := b.Evaluate(context.Background(), p, c.Clone())
	if out.RunTime != want.RunTime || out.Cost != want.Cost {
		t.Fatalf("post-race submission: got %+v want %+v", out, want)
	}
}
