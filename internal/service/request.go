package service

import (
	"fmt"

	"repro/internal/spec"
)

// Request is one tuning-session submission: which problem to tune on
// which simulated machine, with which algorithm and budgets. The zero
// values of the optional fields mean "the defaults cmd/autotune uses",
// and Normalize makes them explicit so the persisted request.json is
// canonical (a resubmission with equal semantics serializes to equal
// bytes and derives an equal cache scope).
type Request struct {
	// Kernel names the problem: a SPAPT kernel (MM, ATAX, COR, LU) or a
	// mini-app (HPL, RT).
	Kernel string `json:"kernel"`
	// Machine and Compiler pick the simulated target.
	Machine  string `json:"machine"`
	Compiler string `json:"compiler,omitempty"`
	// Threads is the OpenMP thread count (default 1).
	Threads int `json:"threads,omitempty"`
	// Algorithm is rs|sa|ga|ps|ensemble (default rs).
	Algorithm string `json:"algorithm,omitempty"`
	// Budget is the evaluation budget (N_max).
	Budget int `json:"budget"`
	// Seed drives the search's random streams (and the fault injector's,
	// when Faults > 0).
	Seed uint64 `json:"seed"`
	// Faults injects evaluation failures at this total rate in [0,1).
	Faults float64 `json:"faults,omitempty"`
	// Retries and Timeout configure the resilient evaluator when Faults
	// or Timeout ask for it (defaults: 2 retries, no timeout).
	Retries int     `json:"retries,omitempty"`
	Timeout float64 `json:"timeout,omitempty"`
	// ThrottleMS pauses this much wall time per real evaluation. It
	// changes nothing about results — it exists so fast simulated
	// sessions stay interruptible (crash drills, e2e tests).
	ThrottleMS int `json:"throttle_ms,omitempty"`
}

// maxBudget bounds a single session's evaluation budget; it protects
// the daemon from absurd submissions, not the search.
const maxBudget = 1_000_000

// maxThrottleMS bounds the per-evaluation wall-clock pause.
const maxThrottleMS = 60_000

// Spec is the evaluation the request describes.
func (r Request) Spec() spec.Spec {
	return spec.Spec{
		Problem: r.Kernel, Machine: r.Machine, Compiler: r.Compiler, Threads: r.Threads,
		Faults: r.Faults, Retries: r.Retries, Timeout: r.Timeout,
		Seed: r.Seed, Algorithm: r.Algorithm, Budget: r.Budget,
	}
}

// Normalize fills defaulted fields in place: the spec's defaults, plus
// cmd/autotune's two retries (a JSON request cannot tell an explicit 0
// from an absent field). Call before Validate.
func (r *Request) Normalize() {
	s := r.Spec()
	s.Normalize()
	r.Compiler, r.Threads, r.Algorithm = s.Compiler, s.Threads, s.Algorithm
	if r.Retries == 0 {
		r.Retries = 2
	}
}

// Validate checks the service-level bounds, then the spec's own checks
// — the same ones cmd/autotune enforces.
func (r Request) Validate() error {
	if r.Budget <= 0 || r.Budget > maxBudget {
		return fmt.Errorf("budget must be in [1,%d], got %d", maxBudget, r.Budget)
	}
	if r.ThrottleMS < 0 || r.ThrottleMS > maxThrottleMS {
		return fmt.Errorf("throttle_ms must be in [0,%d], got %d", maxThrottleMS, r.ThrottleMS)
	}
	s := r.Spec()
	_, err := s.Resolve()
	return err
}
