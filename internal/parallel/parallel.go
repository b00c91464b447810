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
//   - Items are claimed strictly in input order, through one atomic
//     cursor that every worker — the calling goroutine among them —
//     advances itself.
//   - On failure the pool stops claiming new items but never cancels
//     an in-flight one; because claims are in order, every item with an
//     index at or below the first failing item has been claimed and
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
	"sync/atomic"

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
// goroutines, the caller among them, and returns after every claimed
// item has finished.
//
// Items are claimed strictly in input order. After the first item error
// (or once ctx is cancelled) no further items are claimed; items already
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
	workers := min(Workers(opt.Workers), n)
	tr := obs.FromContext(ctx)
	tr.PoolStart(opt.Label, workers, n)
	start := obs.StartTimer()

	var (
		failed  atomic.Bool // stop claiming; never cancels in-flight items
		done    atomic.Int64
		errs    = make([]error, n)
		enabled = tr.Enabled()
	)
	claim := cursor(n)
	fanOut(workers, func(worker int) {
		for !failed.Load() && ctx.Err() == nil {
			i, ok := claim()
			if !ok {
				return
			}
			var sw obs.Stopwatch
			if enabled {
				sw = obs.StartTimer()
			}
			errs[i] = fn(i)
			if enabled {
				tr.WorkerTask(opt.Label, i, worker, sw.Elapsed())
			}
			done.Add(1)
			if errs[i] != nil {
				failed.Store(true)
			}
		}
	})

	tr.PoolFinish(opt.Label, int(done.Load()), start.Elapsed())

	// Lowest-index error first: claim order guarantees every item below
	// the first failing index ran, so this choice is scheduling-invariant.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Do runs fn(i) for every i in [0, n) on at most workers goroutines, the
// caller among them, and waits for all of them. It is the context-free,
// telemetry-free variant for library layers below the context plumbing
// (model fitting and batched prediction); every item always runs exactly
// once. Do(w, w, fn) is a parallel region: each fn(i) is a worker that
// claims its own share of some shared work, so which goroutine runs it
// does not matter.
func Do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	claim := cursor(n)
	fanOut(min(Workers(workers), n), func(int) {
		for i, ok := claim(); ok; i, ok = claim() {
			fn(i)
		}
	})
}

// cursor returns the claim function of one run over [0, n): each call
// claims the next unclaimed index, in increasing order, and reports
// false once all n are claimed. It is safe for concurrent use; a claim
// is one atomic add, so no goroutine hands items to another.
func cursor(n int) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		i := next.Add(1) - 1
		return int(i), i < int64(n)
	}
}

// fanOut runs work(w) for every worker w in [0, workers): worker 0 on
// the calling goroutine, the others on workers-1 new ones. It returns
// once all of them have returned.
func fanOut(workers int, work func(worker int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
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
