package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLowestIndexError: with several failing items, the reported error
// is always the one with the lowest index — the same error a serial
// loop would return — no matter how items are scheduled.
func TestLowestIndexError(t *testing.T) {
	fail := map[int]bool{17: true, 3: true, 41: true}
	for trial := 0; trial < 20; trial++ {
		err := ForEach(context.Background(), Options{Workers: 8}, 50, func(i int) error {
			if fail[i] {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("trial %d: got %v, want item 3's error", trial, err)
		}
	}
}

// TestErrorStopsDispatch: after a failure the pool stops handing out new
// items; in-flight items still complete (they are never cancelled).
func TestErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(context.Background(), Options{Workers: 2}, 1000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("dispatch did not stop after failure: %d items ran", n)
	}
}

// TestCancellation: a cancelled context stops dispatch and surfaces
// ctx.Err() when no item itself failed.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, Options{Workers: 2}, 1000, func(i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("dispatch did not stop after cancel: %d items ran", n)
	}
}

// TestBoundedConcurrency: never more than Workers items in flight.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	err := ForEach(context.Background(), Options{Workers: workers}, 200, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestEveryItemRunsOnce: no item is skipped or run twice on success.
func TestEveryItemRunsOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	if err := ForEach(context.Background(), Options{Workers: 5}, 300, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if seen[i] != 1 {
			t.Fatalf("item %d ran %d times", i, seen[i])
		}
	}
}

// TestDo: the context-free variant runs every item exactly once.
func TestDo(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sum atomic.Int64
		Do(workers, 100, func(i int) { sum.Add(int64(i)) })
		if got := sum.Load(); got != 4950 {
			t.Fatalf("workers=%d: sum = %d, want 4950", workers, got)
		}
	}
	Do(4, 0, func(i int) { t.Fatal("fn called for n=0") })
}

// TestDoClaimsEachItemOnce: every item runs exactly once, for item
// counts below, at and above the worker count, and none when there are
// no items.
func TestDoClaimsEachItemOnce(t *testing.T) {
	const workers = 4
	for _, n := range []int{0, 1, workers - 1, workers, 1000} {
		runs := make([]atomic.Int32, n)
		Do(workers, n, func(i int) { runs[i].Add(1) })
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: item %d ran %d times", n, i, got)
			}
		}
	}
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestDoCallerWorks: the calling goroutine is one of the workers, so it
// runs items itself, and Do starts only workers-1 goroutines, none of
// which outlives the call.
func TestDoCallerWorks(t *testing.T) {
	const workers, n = 3, 300
	caller, before := goid(), runtime.NumGoroutine()
	var onCaller, peak atomic.Int64
	Do(workers, n, func(i int) {
		if goid() == caller {
			onCaller.Add(1)
		}
		for {
			p, cur := peak.Load(), int64(runtime.NumGoroutine())
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
	})
	if onCaller.Load() == 0 {
		t.Fatal("the calling goroutine ran no items")
	}
	if extra := peak.Load() - int64(before); extra > workers-1 {
		t.Fatalf("%d goroutines beside the caller's, want at most %d", extra, workers-1)
	}
	// A worker may still be returning from its deferred Done.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Do, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkers: the resolver clamps to [1, ...] and defaults to CPUs.
func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must resolve to at least 1")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}

// TestShard: shards tile [0, n) exactly, with sizes differing by at
// most one.
func TestShard(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, shards := range []int{1, 3, 8} {
			next := 0
			for s := 0; s < shards; s++ {
				lo, hi := Shard(n, shards, s)
				if lo != next {
					t.Fatalf("n=%d shards=%d s=%d: lo=%d, want %d", n, shards, s, lo, next)
				}
				if size := hi - lo; size < n/shards || size > n/shards+1 {
					t.Fatalf("n=%d shards=%d s=%d: uneven size %d", n, shards, s, size)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: shards cover [0,%d), want [0,%d)", n, shards, next, n)
			}
		}
	}
}

// TestPoolTelemetry: a traced pool run emits pool-start, one worker-task
// per item, and pool-finish; an untraced run emits nothing and costs no
// tracer work.
func TestPoolTelemetry(t *testing.T) {
	sink := &obs.MemorySink{}
	ctx := obs.WithTracer(context.Background(), obs.New(sink))
	if err := ForEach(ctx, Options{Workers: 4, Label: "telemetry-test"}, 10, func(i int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	var starts, tasks, finishes int
	for _, e := range events {
		switch e.Kind {
		case obs.KindPoolStart:
			starts++
			if e.Algo != "telemetry-test" || e.N != 10 {
				t.Fatalf("bad pool-start event: %+v", e)
			}
			if e.Detail != "workers=4" {
				t.Fatalf("pool-start detail = %q, want workers=4", e.Detail)
			}
		case obs.KindWorkerTask:
			tasks++
			if e.Seq < 0 || e.Seq >= 10 || e.N < 0 || e.N >= 4 {
				t.Fatalf("bad worker-task event: %+v", e)
			}
		case obs.KindPoolFinish:
			finishes++
			if e.N != 10 {
				t.Fatalf("pool-finish reports %d items, want 10", e.N)
			}
		}
	}
	if starts != 1 || tasks != 10 || finishes != 1 {
		t.Fatalf("got %d pool-start, %d worker-task, %d pool-finish; want 1, 10, 1", starts, tasks, finishes)
	}
}

// TestZeroItems: n=0 is a no-op success.
func TestZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), Options{}, 0, func(i int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
