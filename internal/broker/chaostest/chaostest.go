// Package chaostest is the randomized chaos harness for the remote
// worker transport: each trial draws a random lease and failure-detector
// shape and random network-fault intensities (drops, delays, duplicates,
// reorders, partitions, connection kills), runs a full search through
// remote worker sessions, and asserts two properties:
//
//   - termination: the search finishes despite lost frames, dead
//     sessions, and reclaimed leases (a watchdog converts a hang into a
//     failure);
//   - determinism: the result is bit-identical to the inline run —
//     records, statuses, best, best-so-far — reusing the crashtest
//     comparator.
//
// Trials are reproducible: every knob derives from named rng streams of
// the campaign seed, so a failing trial replays exactly.
package chaostest

import (
	"os"
	"time"

	"repro/internal/faults"
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
		d += float64(diff * diff)
	}
	run := 1 + d
	return run, run + 0.5
}

// newFaulty layers evaluation faults and retry budgets over the bowl,
// so chaos trials stress the transport and the resilience layer
// together.
func newFaulty(seed uint64) search.Problem {
	rates := faults.Rates{CompileFail: 0.08, Crash: 0.1, Hang: 0.05}
	return search.NewResilient(faults.Wrap(newBowl(), rates, seed),
		search.ResilientOptions{Retries: 2, Timeout: 120})
}

// watchdogDefault bounds a chaos trial: a transport bug that deadlocks
// the search must fail the trial, not hang the suite.
const watchdogDefault = 60 * time.Second

// WatchdogEnv names the environment variable that overrides the trial
// watchdog (a Go duration, e.g. "90s"): slow CI machines raise it, local
// bisection runs lower it. Unset, empty, unparsable, or non-positive
// values keep the default.
const WatchdogEnv = "REPRO_CHAOS_WATCHDOG"

// watchdogTimeout resolves the effective trial watchdog.
func watchdogTimeout() time.Duration {
	if v := os.Getenv(WatchdogEnv); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return watchdogDefault
}
