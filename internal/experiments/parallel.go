package experiments

import (
	"context"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// runCells executes n independent experiment cells through the shared
// worker-pool engine (internal/parallel), bounded by cfg.Workers.
//
// Telemetry fan-in keeps parallel runs observationally identical to
// serial ones: when the experiment is traced, every cell runs under its
// own buffering tracer, and the buffers are replayed into the parent
// sink in input order after the pool drains (obs.Fanin). The parent
// therefore sees the exact event sequence a serial loop would have
// produced — same events, same order — so metrics registries fold to the
// same counters and gauges regardless of worker count (only wall-clock
// Dur fields and the engine's own pool-start/worker-task/pool-finish
// events describe the actual scheduling). The engine events bypass the
// buffers: they go straight to the parent tracer on ctx.
//
// Result determinism needs no machinery at all: each cell derives its
// rng streams from its own seed (common random numbers), so cell
// results cannot depend on scheduling. See DESIGN.md.
func runCells(ctx context.Context, cfg Config, label string, n int, cell func(ctx context.Context, i int) error) error {
	fan := obs.NewFanin(ctx, n)
	err := parallel.ForEach(ctx, parallel.Options{Workers: cfg.Workers, Label: label}, n, func(i int) error {
		return cell(fan.Context(ctx, i), i)
	})
	// Replay even on error: the cells that did run are observable, just
	// as they would be after a serial loop stopped partway.
	fan.Replay()
	return err
}
