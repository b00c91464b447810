package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value (0 until the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates a distribution over fixed bucket upper bounds
// (each bucket counts observations <= its bound; an implicit +Inf bucket
// catches the rest).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1), min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Summary returns count, mean, min, and max (mean/min/max are NaN when
// empty).
func (h *Histogram) Summary() (n int64, mean, min, max float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0, math.NaN(), math.NaN(), math.NaN()
	}
	return h.n, h.sum / float64(h.n), h.min, h.max
}

// Quantile returns an upper bound on the q-quantile (0<q<1) from the
// bucket counts: the bound of the first bucket whose cumulative count
// reaches q. The top bucket yields +Inf.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return math.NaN()
	}
	target := int64(math.Ceil(q * float64(h.n)))
	cum := int64(0)
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Registry holds named metrics. Get-or-create accessors make
// instrumented code registration-free; names are rendered sorted, so
// snapshots are stable.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot renders every metric as aligned text, sorted by name — the
// end-of-run summary format of cmd/autotune and cmd/experiments.
func (r *Registry) Snapshot() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder

	if len(r.counts) > 0 {
		names := make([]string, 0, len(r.counts))
		for n := range r.counts {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("counters:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-32s %d\n", n, r.counts[n].Value())
		}
	}
	if len(r.gauges) > 0 {
		names := make([]string, 0, len(r.gauges))
		for n := range r.gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("gauges:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-32s %g\n", n, r.gauges[n].Value())
		}
	}
	if len(r.hists) > 0 {
		names := make([]string, 0, len(r.hists))
		for n := range r.hists {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("histograms:\n")
		for _, n := range names {
			cnt, mean, min, max := r.hists[n].Summary()
			if cnt == 0 {
				fmt.Fprintf(&b, "  %-32s n=0\n", n)
				continue
			}
			fmt.Fprintf(&b, "  %-32s n=%d mean=%.4g min=%.4g max=%.4g p90<=%.4g\n",
				n, cnt, mean, min, max, r.hists[n].Quantile(0.9))
		}
	}
	return b.String()
}

// Standard metric names folded by the metrics sink. Exposed so tools and
// tests address them without string drift.
const (
	MetricEvals          = "evals.total"
	MetricEvalsPrefix    = "evals.by-status." // + status
	MetricRetries        = "evals.retries"
	MetricSkips          = "search.skips"
	MetricCacheHits      = "search.cache-hits"
	MetricCensorKills    = "eval.censor-kills"
	MetricFaults         = "eval.faults"
	MetricInterrupts     = "eval.interrupts"
	MetricDegraded       = "search.degraded"
	MetricSearches       = "search.runs"
	MetricBestRunTime    = "search.best-run-time"
	MetricSearchClock    = "search.clock"
	MetricEvalCost       = "eval.cost"
	MetricPredictCalls   = "model.predict.calls"
	MetricPredictPerCall = "model.predict.us-per-call"
	MetricFitCount       = "model.fits"
	MetricFitMillis      = "model.fit.ms"
	MetricAppendMillis   = "journal.append.ms"
	MetricAppends        = "journal.appends"
	MetricCheckpoints    = "journal.checkpoints"
	MetricPoolRuns       = "pool.runs"
	MetricPoolTasks      = "pool.tasks"
	MetricPoolTaskMillis = "pool.task.ms"
	MetricWarnings       = "warnings"

	// Broker metrics. All of these describe the harness's scheduling and
	// fault recovery — they are expected to differ between runs of the
	// same seed, unlike the evals.* family.
	MetricBrokerSubmits     = "broker.submits"
	MetricBrokerRetries     = "broker.retries"
	MetricBrokerHedges      = "broker.hedges"
	MetricBrokerHedgeWasted = "broker.hedge-wasted"

	// Remote-worker metrics (internal/broker/remote). Like the broker.*
	// family these describe transport scheduling and failure recovery,
	// not results.
	MetricRemoteSessions      = "broker.remote.sessions"
	MetricRemoteDeaths        = "broker.remote.deaths"
	MetricRemoteHeartbeatMiss = "broker.remote.heartbeat-misses"
	MetricRemoteLeases        = "broker.remote.leases"
	MetricRemoteLeaseExpired  = "broker.remote.lease-expired"
	MetricRemoteDupResults    = "broker.remote.dup-results"
	MetricRemoteReconnects    = "broker.remote.reconnects"

	// Distributed-tracing metrics. Span counts follow real scheduling
	// (retries, hedges, lease churn), so they vary between runs like the
	// broker.* family.
	MetricSpans       = "trace.spans"
	MetricSpansPrefix = "trace.spans." // + stage
)

// MetricsSink folds trace events into a Registry: evaluation counts by
// status, skips, retries, cache hits, predict/fit latency, and the
// best-so-far / search-clock gauges. Pair it with other sinks via Multi
// to trace and aggregate in one pass.
type MetricsSink struct {
	reg  *Registry
	mu   sync.Mutex
	best float64
}

// NewMetricsSink returns a sink aggregating into reg.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{reg: reg, best: math.Inf(1)}
}

// Registry returns the sink's registry.
func (m *MetricsSink) Registry() *Registry { return m.reg }

// Emit implements Sink.
func (m *MetricsSink) Emit(e Event) {
	switch e.Kind {
	case KindSearchStart:
		m.reg.Counter(MetricSearches).Inc()
	case KindEval:
		m.reg.Counter(MetricEvals).Inc()
		if e.Status != "" {
			m.reg.Counter(MetricEvalsPrefix + e.Status).Inc()
		}
		if e.N > 0 {
			m.reg.Counter(MetricRetries).Add(int64(e.N))
		}
		m.reg.Histogram(MetricEvalCost, []float64{1, 10, 60, 300, 1800, 7200}).Observe(e.Cost)
		m.reg.Gauge(MetricSearchClock).Set(e.Elapsed)
		if e.Status == "ok" {
			m.mu.Lock()
			if e.Value < m.best {
				m.best = e.Value
				m.reg.Gauge(MetricBestRunTime).Set(e.Value)
			}
			m.mu.Unlock()
		}
	case KindSkip:
		m.reg.Counter(MetricSkips).Inc()
	case KindCacheHit:
		m.reg.Counter(MetricCacheHits).Inc()
	case KindCensor:
		m.reg.Counter(MetricCensorKills).Inc()
	case KindTimeout:
		m.reg.Counter(MetricInterrupts).Inc()
	case KindFault:
		m.reg.Counter(MetricFaults).Inc()
	case KindDegraded:
		m.reg.Counter(MetricDegraded).Inc()
	case KindModelPredict:
		m.reg.Counter(MetricPredictCalls).Add(int64(e.N))
		if e.N > 0 {
			perCall := float64(e.Dur.Microseconds()) / float64(e.N)
			m.reg.Histogram(MetricPredictPerCall,
				[]float64{0.1, 0.5, 1, 5, 10, 50, 100, 1000}).Observe(perCall)
		}
	case KindModelFit:
		m.reg.Counter(MetricFitCount).Inc()
		m.reg.Histogram(MetricFitMillis,
			[]float64{1, 5, 10, 50, 100, 500, 1000, 5000}).Observe(float64(e.Dur) / float64(time.Millisecond))
	case KindJournalAppend:
		m.reg.Counter(MetricAppends).Inc()
		m.reg.Histogram(MetricAppendMillis,
			[]float64{0.1, 0.5, 1, 5, 10, 50, 100}).Observe(float64(e.Dur) / float64(time.Millisecond))
	case KindCheckpoint:
		m.reg.Counter(MetricCheckpoints).Inc()
	case KindPoolStart:
		m.reg.Counter(MetricPoolRuns).Inc()
	case KindWorkerTask:
		m.reg.Counter(MetricPoolTasks).Inc()
		m.reg.Histogram(MetricPoolTaskMillis,
			[]float64{1, 5, 10, 50, 100, 500, 1000, 5000}).Observe(float64(e.Dur) / float64(time.Millisecond))
	case KindWarning:
		m.reg.Counter(MetricWarnings).Inc()
	case KindEnqueue:
		m.reg.Counter(MetricBrokerSubmits).Inc()
	case KindBrokerRetry:
		m.reg.Counter(MetricBrokerRetries).Inc()
	case KindHedge:
		if e.Detail == "wasted" {
			m.reg.Counter(MetricBrokerHedgeWasted).Inc()
		} else {
			m.reg.Counter(MetricBrokerHedges).Inc()
		}
	case KindRemoteWorker:
		switch e.Detail {
		case "connected":
			m.reg.Counter(MetricRemoteSessions).Inc()
		case "dead":
			m.reg.Counter(MetricRemoteDeaths).Inc()
		}
	case KindHeartbeatMiss:
		m.reg.Counter(MetricRemoteHeartbeatMiss).Inc()
	case KindLease:
		switch e.Detail {
		case "grant":
			m.reg.Counter(MetricRemoteLeases).Inc()
		case "expire":
			m.reg.Counter(MetricRemoteLeaseExpired).Inc()
		case "dup-result":
			m.reg.Counter(MetricRemoteDupResults).Inc()
		}
	case KindReconnect:
		m.reg.Counter(MetricRemoteReconnects).Inc()
	case KindSpan:
		m.reg.Counter(MetricSpans).Inc()
		if e.Detail != "" {
			m.reg.Counter(MetricSpansPrefix + e.Detail).Inc()
		}
	}
}
