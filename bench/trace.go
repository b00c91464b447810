package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Trace is the op index; Parent is 0 for an op's
// root span.
type span struct {
	Trace  int            `json:"trace"`
	ID     int            `json:"span"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Counts map[string]int `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Every clock read
// goes through one obs.Stopwatch started with the tracer, so stamps are
// monotonic nanoseconds since the run began and the timing wrappers,
// which the search code calls, read no clock of their own.
type tracer struct {
	clock obs.Stopwatch

	mu    sync.Mutex
	spans []span
	// cur is the parent of leaf spans opened by the in-process timing
	// wrappers (which run on the op's goroutine).
	cur int
}

func newTracer() *tracer { return &tracer{clock: obs.StartTimer()} }

func (t *tracer) now() int64 { return int64(t.clock.Elapsed()) }

// begin opens a span and returns its id.
func (t *tracer) begin(trace, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id, attaching counts (which may be nil).
func (t *tracer) end(id int, counts map[string]int) {
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = stop
	t.spans[id-1].Counts = counts
}

// record adds an already-measured span: the service workloads stamp
// their spans with the load generator's clock.
func (t *tracer) record(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// phase opens a child of the op's root and makes it the parent of the
// leaf spans the wrappers record until the returned func closes it.
func (t *tracer) phase(trace, root int, name string) func(counts map[string]int) {
	id := t.begin(trace, root, name)
	t.cur = id
	return func(counts map[string]int) {
		t.end(id, counts)
		t.cur = root
	}
}

// timedProblem wraps a search.Problem and records each Evaluate as a
// sim.evaluate span. It must wrap a bare problem: it forwards only the
// Problem methods, so layers that add failure semantics go above it.
type timedProblem struct {
	search.Problem
	t     *tracer
	trace int
}

func (p timedProblem) Evaluate(c space.Config) (float64, float64) {
	id := p.t.begin(p.trace, p.t.cur, "sim.evaluate")
	run, cost := p.Problem.Evaluate(c)
	p.t.end(id, nil)
	return run, cost
}

// timedModel wraps the fitted surrogate and records each prediction
// call as a forest.predict span counting the rows it scored.
type timedModel struct {
	m     search.BatchModel
	t     *tracer
	trace int
}

func (m timedModel) Predict(x []float64) float64 {
	id := m.t.begin(m.trace, m.t.cur, "forest.predict")
	v := m.m.Predict(x)
	m.t.end(id, map[string]int{"rows": 1})
	return v
}

func (m timedModel) PredictAll(X [][]float64) []float64 {
	id := m.t.begin(m.trace, m.t.cur, "forest.predict")
	out := m.m.PredictAll(X)
	m.t.end(id, map[string]int{"rows": len(X)})
	return out
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name   string
	Calls  int
	Total  int64 // ns
	Self   int64 // ns: duration minus direct children
	Counts map[string]int
}

// spanSummary is the analysed trace: per-name totals and self times,
// plus per-op root durations.
type spanSummary struct {
	byName map[string]*layerStat
	roots  []span
}

func summarize(spans []span) spanSummary {
	childSum := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	sum := spanSummary{byName: map[string]*layerStat{}}
	for _, s := range spans {
		st := sum.byName[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name, Counts: map[string]int{}}
			sum.byName[s.Name] = st
		}
		st.Calls++
		st.Total += s.dur()
		st.Self += s.dur() - childSum[s.ID]
		for k, v := range s.Counts {
			st.Counts[k] += v
		}
		if s.Parent == 0 {
			sum.roots = append(sum.roots, s)
		}
	}
	return sum
}

// stat returns the named layer's aggregate (zero when absent).
func (s spanSummary) stat(name string) layerStat {
	if st := s.byName[name]; st != nil {
		return *st
	}
	return layerStat{Name: name, Counts: map[string]int{}}
}

// names lists the aggregated span names in sorted order.
func (s spanSummary) names() []string {
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// decompositions names the direct children of an op type's root, in
// the order the op runs them, with the label each gets in the
// decomposition line.
var decompositions = map[string][][2]string{
	"transfer": {
		{"collect", "search.rs"}, {"fit", "forest.fit"}, {"replay", "search.replay"},
		{"rsp", "search.rsp"}, {"rsb", "search.rsb"}, {"rspf", "search.rspf"}, {"rsbf", "search.rsbf"},
	},
	"tune": {
		{"rs", "search.rs"}, {"sa", "search.sa"}, {"ga", "search.ga"},
		{"ps", "search.ps"}, {"ensemble", "search.ensemble"},
	},
	"session": {
		{"submit", "http.submit"}, {"queue_wait", "service.queue_wait"}, {"run", "service.run"},
		{"result", "http.result"},
	},
}

// decompositionLine renders "op = a + b + ... + unaccounted" with the
// mean seconds per op of each term.
func decompositionLine(op string, spans []span) (formula string, means map[string]float64) {
	var roots []span
	direct := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == op {
			roots = append(roots, s)
			direct[s.ID] = true
		}
	}
	means = map[string]float64{}
	if len(roots) == 0 {
		return "", means
	}
	byLabel := map[string]int64{}
	var total, children int64
	for _, r := range roots {
		total += r.dur()
	}
	for _, s := range spans {
		if !direct[s.Parent] {
			continue
		}
		children += s.dur()
		for _, term := range decompositions[op] {
			if term[1] == s.Name {
				byLabel[term[0]] += s.dur()
			}
		}
	}
	n := float64(len(roots))
	terms := []string{}
	for _, term := range decompositions[op] {
		terms = append(terms, term[0])
		means[term[0]] = float64(byLabel[term[0]]) / n / 1e9
	}
	terms = append(terms, "unaccounted")
	means["unaccounted"] = float64(total-children) / n / 1e9
	means[op] = float64(total) / n / 1e9
	return op + " = " + strings.Join(terms, " + "), means
}

// writeTrace writes the spans as JSONL, then the per-layer self-time
// table and the decomposition line, each as one JSON object per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	werr := encodeTrace(w, spans)
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func encodeTrace(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	sum := summarize(spans)
	for _, name := range sum.names() {
		st := sum.byName[name]
		row := struct {
			Table  string         `json:"table"`
			Name   string         `json:"name"`
			Calls  int            `json:"calls"`
			TotalS float64        `json:"total_s"`
			SelfS  float64        `json:"self_s"`
			Counts map[string]int `json:"counts,omitempty"`
		}{"self_time", name, st.Calls, float64(st.Total) / 1e9, float64(st.Self) / 1e9, st.Counts}
		if len(row.Counts) == 0 {
			row.Counts = nil
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	for _, op := range []string{"transfer", "tune", "session"} {
		formula, means := decompositionLine(op, spans)
		if formula == "" {
			continue
		}
		line := struct {
			Decomposition string             `json:"decomposition"`
			MeanS         map[string]float64 `json:"mean_s_per_op"`
		}{formula, means}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// printSelfTimes writes the human-readable self-time table to w.
func printSelfTimes(w io.Writer, spans []span) {
	sum := summarize(spans)
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "layer", "calls", "total_s", "self_s")
	for _, name := range sum.names() {
		st := sum.byName[name]
		fmt.Fprintf(w, "%-22s %8d %12.6f %12.6f\n", name, st.Calls, float64(st.Total)/1e9, float64(st.Self)/1e9)
	}
	for _, op := range []string{"transfer", "tune", "session"} {
		if formula, means := decompositionLine(op, spans); formula != "" {
			fmt.Fprintf(w, "%s\n", formula)
			keys := make([]string, 0, len(means))
			for k := range means {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "  %-12s %.6f s/op\n", k, means[k])
			}
		}
	}
}
