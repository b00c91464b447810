// Package parallel is the repository's bounded worker-pool engine: it
// fans independent work items out over a fixed number of goroutines,
// each item writing its result at its own input index.
//
// The engine exists because the experiment grids and model-scoring loops
// are embarrassingly parallel under the paper's common-random-numbers
// design: every cell derives its own seeded rng streams, so no cell's
// result can depend on when — or on which goroutine — it ran. The
// engine's job is therefore purely mechanical (bound concurrency, stop
// on failure, keep ordering), and every determinism-relevant guarantee
// is structural:
//
//   - Results are keyed by input index, never by completion order.
//   - Items are dispatched strictly in input order.
//   - On failure the pool stops dispatching new items but never cancels
//     an in-flight one; because dispatch is in-order, every item with an
//     index at or below the first failing item has been dispatched and
//     runs to completion, so the reported error — the failing item with
//     the lowest index — is the same error a serial loop would have
//     returned, independent of scheduling.
//
// The package is dependency-free beyond the standard library and
// internal/obs (worker-scheduling telemetry, observational only).
package parallel

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Workers resolves a requested worker count: values <= 0 mean "one per
// available CPU" (GOMAXPROCS), and the result is clamped to at least 1.
func Workers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Options configures one pool run.
type Options struct {
	// Workers bounds the number of concurrently running items;
	// <= 0 means GOMAXPROCS.
	Workers int
	// Label names the pool in telemetry events ("table4-cells", ...).
	Label string
}

// ForEach runs fn(i) for every i in [0, n) on at most opt.Workers
// goroutines and returns after every dispatched item has finished.
//
// Dispatch is strictly in input order. After the first item error (or
// once ctx is cancelled) no further items are dispatched; items already
// running complete normally — the pool never cancels work, so partial
// failure cannot perturb the items that did run. The returned error is
// the error of the failing item with the lowest index (deterministic
// regardless of scheduling; see the package comment), or ctx.Err() when
// the pool stopped on cancellation without an item error.
//
// Worker-scheduling telemetry (pool-start, worker-task, pool-finish)
// is emitted through the tracer on ctx; the events carry wall-clock
// durations and worker ids, and are the only part of a pool run that
// depends on scheduling.
func ForEach(ctx context.Context, opt Options, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := Workers(opt.Workers)
	if workers > n {
		workers = n
	}
	tr := obs.FromContext(ctx)
	tr.PoolStart(opt.Label, workers, n)
	start := obs.StartTimer()

	var (
		mu       sync.Mutex
		failed   = false // stop dispatching; never cancels in-flight items
		errs     = make([]error, n)
		done     = 0
		jobs     = make(chan int)
		wg       sync.WaitGroup
		enabled  = tr.Enabled()
		taskWall []time.Duration
	)
	if enabled {
		taskWall = make([]time.Duration, n)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				var sw obs.Stopwatch
				if enabled {
					sw = obs.StartTimer()
				}
				err := fn(i)
				if enabled {
					taskWall[i] = sw.Elapsed()
					tr.WorkerTask(opt.Label, i, worker, taskWall[i])
				}
				mu.Lock()
				errs[i] = err
				done++
				if err != nil {
					failed = true
				}
				mu.Unlock()
			}
		}(w)
	}

dispatch:
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		mu.Lock()
		stop := failed
		mu.Unlock()
		if stop {
			break dispatch
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	tr.PoolFinish(opt.Label, done, start.Elapsed())

	// Lowest-index error first: dispatch order guarantees every item below
	// the first failing index ran, so this choice is scheduling-invariant.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Do runs fn(i) for every i in [0, n) on at most workers goroutines and
// waits for all of them. It is the context-free, telemetry-free variant
// for library layers below the context plumbing (model fitting and
// batched prediction); every item always runs exactly once.
func Do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Shard splits n items into the given number of contiguous shards and
// returns shard s's half-open range [lo, hi). Shard sizes differ by at
// most one, and the union of all shards is exactly [0, n).
func Shard(n, shards, s int) (lo, hi int) {
	base := n / shards
	rem := n % shards
	lo = s*base + min(s, rem)
	hi = lo + base
	if s < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
