// Package evalcache memoizes evaluation outcomes across searches,
// sessions, and daemon restarts.
//
// The paper's "reuse autotuning knowledge" story (and the kubecl
// observation quoted in SNIPPETS.md §3 — "ship the autotune cache with
// your program") both rest on the same economics: the expensive
// artifact of an autotuning run is the evaluation record, not the
// search trajectory. A configuration compiled and measured once on a
// machine never needs to be measured again, by any search, in any
// process. This package makes that record first-class: a concurrent
// cache keyed by (evaluation scope, configuration) whose entries are
// complete reduced outcomes (run time, search-clock cost, status,
// retry count), a Problem wrapper that consults it transparently, and
// a versioned JSON artifact format so the cache can be exported,
// shipped, and imported (internal/service serves it over HTTP).
//
// Memoization is sound here because every evaluation layer below the
// cache is a pure function of its scope: the simulator is
// deterministic in (kernel, target, configuration), and the fault
// injector rolls a pure function of (seed, problem, configuration,
// attempt) — see internal/faults. The scope string encodes everything
// that shapes an outcome (problem identity plus the evaluator
// settings: fault rates, injector seed, retry and timeout budgets), so
// two evaluations with equal keys are bit-identical by construction
// and serving one from memory cannot perturb a search. DESIGN.md §11
// gives the full argument, including why the common-random-numbers
// invariants survive.
package evalcache

import (
	"context"
	"math"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// Outcome is one memoized evaluation: the reduced result the search
// layer observes, minus the transport-only fields (Err, Degraded) that
// deliberately never reach a Record and therefore must not be replayed.
type Outcome struct {
	// RunTime is the measurement; the timeout cap for censored
	// outcomes; +Inf for failed ones.
	RunTime float64
	// Cost is the total search-clock charge of the original evaluation,
	// retries and backoff included.
	Cost    float64
	Status  search.Status
	Retries int
}

// toSearch widens the memo back into the outcome the search layer
// consumes. Err stays nil: a completed failure is replayed as exactly
// the failure record it produced, and Interrupted() is false either way.
func (o Outcome) toSearch() search.Outcome {
	return search.Outcome{RunTime: o.RunTime, Cost: o.Cost, Status: o.Status, Retries: o.Retries}
}

// fromSearch reduces a completed evaluation for memoization.
func fromSearch(out search.Outcome) Outcome {
	return Outcome{RunTime: out.RunTime, Cost: out.Cost, Status: out.Status, Retries: out.Retries}
}

// fromRecord reduces a journaled record for memoization (journal
// ingestion on daemon restart: the journal is itself an evaluation
// record, so its entries warm the cache without re-running anything).
func fromRecord(rec search.Record) Outcome {
	return Outcome{RunTime: rec.RunTime, Cost: rec.Cost, Status: rec.Status, Retries: rec.Retries}
}

// Scope canonically encodes an evaluation stack: the problem identity
// (which already pins kernel, machine, compiler, and thread count —
// see kernels.Problem.Name) joined with every evaluator setting that
// shapes outcomes (fault rates, injector seed, retry/timeout budgets).
// Settings must be passed in a fixed order by the caller; the cache
// treats the result as opaque. Two stacks with equal scopes produce
// bit-identical outcomes for equal configurations, which is the
// soundness contract of the whole package.
func Scope(problem string, settings ...string) string {
	if len(settings) == 0 {
		return problem
	}
	return problem + "|" + strings.Join(settings, "|")
}

// key builds the cache key for one (scope, configuration) pair. The
// NUL separator cannot occur in either part (scopes are printable,
// config keys are digits and commas), so keys never collide across
// scopes.
func key(scope string, c space.Config) string {
	return scope + "\x00" + c.Key()
}

// Cache is a concurrent memo of evaluation outcomes. The zero value is
// not usable; call New. First write wins: once a key holds an outcome
// it is never replaced, so a cache merged from several sources stays
// internally consistent (and a corrupt import cannot overwrite live
// measurements).
type Cache struct {
	mu     sync.RWMutex
	m      map[string]Outcome
	hits   uint64
	misses uint64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{m: make(map[string]Outcome)}
}

// Get returns the memoized outcome for (scope, c), if present. It
// counts toward the cache-wide hit/miss totals.
func (ch *Cache) Get(scope string, c space.Config) (Outcome, bool) {
	k := key(scope, c)
	ch.mu.Lock()
	o, ok := ch.m[k]
	if ok {
		ch.hits++
	} else {
		ch.misses++
	}
	ch.mu.Unlock()
	return o, ok
}

// Put memoizes an outcome, reporting whether it was newly added (false
// means the key already held one; the existing entry is kept).
// Non-finite costs and NaN run times are refused outright — they can
// only come from corruption, and a poisoned entry would replay into
// every future search. (+Inf run times are legitimate: failed
// evaluations carry them.)
func (ch *Cache) Put(scope string, c space.Config, o Outcome) bool {
	if math.IsNaN(o.RunTime) || math.IsNaN(o.Cost) || math.IsInf(o.Cost, 0) {
		return false
	}
	k := key(scope, c)
	ch.mu.Lock()
	_, exists := ch.m[k]
	if !exists {
		ch.m[k] = o
	}
	ch.mu.Unlock()
	return !exists
}

// IngestRecord memoizes a completed search record — the journal-warmup
// path: on restart the daemon replays every session journal into the
// cache, so evaluations that survived a crash are never re-run.
func (ch *Cache) IngestRecord(scope string, rec search.Record) bool {
	return ch.Put(scope, rec.Config, fromRecord(rec))
}

// Len returns the number of memoized outcomes.
func (ch *Cache) Len() int {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	return len(ch.m)
}

// Stats returns the cache-wide hit and miss totals.
func (ch *Cache) Stats() (hits, misses uint64) {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	return ch.hits, ch.misses
}

// Problem wraps p so every evaluation consults the cache first under
// the given scope. The wrapper composes like every other evaluation
// layer (Resilient, BrokeredProblem, journal.Recorder): it implements
// both Problem and FullEvaluator, keeps the wrapped problem's identity,
// and is safe for concurrent use by construction (the cache is locked,
// the wrapped problem is only reached on a miss).
func (ch *Cache) Problem(p search.Problem, scope string) *CachedProblem {
	return &CachedProblem{p: p, cache: ch, scope: scope}
}

// CachedProblem is the memoizing evaluation layer around a Problem.
type CachedProblem struct {
	p     search.Problem
	cache *Cache
	scope string

	mu     sync.Mutex
	hits   int
	misses int
}

// Name implements search.Problem. The cache keeps the wrapped problem's
// identity: memoization is a property of the harness, not a new problem.
func (cp *CachedProblem) Name() string { return cp.p.Name() }

// Space implements search.Problem.
func (cp *CachedProblem) Space() *space.Space { return cp.p.Space() }

// Scope returns the wrapper's evaluation scope.
func (cp *CachedProblem) Scope() string { return cp.scope }

// Counts returns how many of this wrapper's evaluations were served
// from the cache and how many ran for real — the per-session numbers
// internal/service reports (a fully warmed resubmission shows
// misses == 0).
func (cp *CachedProblem) Counts() (hits, misses int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.hits, cp.misses
}

// Evaluate implements search.Problem through search.EvaluateBackground:
// a hit is served and a miss is memoized, exactly as under EvaluateFull.
func (cp *CachedProblem) Evaluate(c space.Config) (runTime, cost float64) {
	return search.EvaluateBackground(cp, c)
}

// EvaluateFull implements search.FullEvaluator: serve the memo on a
// hit, evaluate and memoize on a miss. Interrupted outcomes (context
// cancellation, evaluator aborts) are never cached — they carry no
// measurement and would otherwise poison every later run.
func (cp *CachedProblem) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	if o, ok := cp.cache.Get(cp.scope, c); ok {
		cp.mu.Lock()
		cp.hits++
		cp.mu.Unlock()
		obs.FromContext(ctx).CacheHit("evalcache", cp.p.Name(), -1, c)
		return o.toSearch()
	}
	out := search.EvaluateFull(ctx, cp.p, c)
	if out.Interrupted() {
		return out
	}
	cp.mu.Lock()
	cp.misses++
	cp.mu.Unlock()
	cp.cache.Put(cp.scope, c, fromSearch(out))
	return out
}
