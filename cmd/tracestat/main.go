// Command tracestat summarizes JSONL search traces written by
// autotune -trace, brokerd -trace, or any obs.JSONLSink.
//
// Usage:
//
//	tracestat FILE...
//	tracestat -          # read a trace from stdin
//
// It prints, per merged trace: the run header (algorithm, problem,
// evaluation statuses, best run), a wall-time breakdown of the
// instrumented phases (model scoring, model fits, journal appends,
// checkpoints), and the convergence table — the best-so-far curve
// reconstructed purely from the trace's evaluation events.
//
// Given several files — typically the coordinator's trace plus one
// trace per remote worker — tracestat stitches their span events into
// one causal per-task timeline keyed by trace id: queue wait, attempt
// tree (retries and hedges), which worker evaluated each task and for
// how long, and a per-worker utilization table. Malformed lines (a
// torn tail from a killed process, a partial write) are skipped with a
// warning rather than failing the whole file.
//
// Exit codes: 0 success, 1 unreadable or malformed trace, 2 bad usage.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, w io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracestat FILE...   (use - for stdin)")
		return exitUsage
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-") && a != "-" {
			fmt.Fprintln(os.Stderr, "usage: tracestat FILE...   (use - for stdin)")
			return exitUsage
		}
	}
	var events []obs.Event
	for _, a := range args {
		evs, err := readOne(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			return exitError
		}
		events = append(events, evs...)
	}
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "tracestat: trace holds no events")
		return exitError
	}
	render(w, analyze(events))
	if d := stitch(events); d != nil {
		renderDistributed(w, d)
	}
	return exitOK
}

// readOne reads one trace file (or stdin, for "-") leniently: malformed
// lines — a torn tail from a killed worker, a partial write — are
// skipped with a warning instead of condemning the readable remainder.
func readOne(arg string) ([]obs.Event, error) {
	var r io.Reader = os.Stdin
	name := "stdin"
	if arg != "-" {
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		// Read-only handle: a close failure cannot lose data.
		defer func() { _ = f.Close() }()
		r = f
		name = arg
	}
	events, skipped, err := obs.ReadTraceLenient(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "tracestat: %s: skipped %d malformed line(s)\n", name, skipped)
	}
	return events, nil
}

// phaseTime accumulates the wall time of one instrumented phase.
type phaseTime struct {
	name   string
	events int
	calls  int
	dur    time.Duration
}

// curvePoint is one improvement step of the best-so-far curve.
type curvePoint struct {
	seq    int
	clock  float64
	best   float64
	config string
}

// traceStats is everything tracestat reports about one trace.
type traceStats struct {
	events    int
	algorithm string
	problem   string

	evals    int
	byStatus map[string]int
	retried  int
	retries  int
	skipped  int
	cacheHit int

	bestRun   float64
	bestSeq   int
	bestClock float64
	clock     float64

	phases []phaseTime
	curve  []curvePoint

	journalAppends int
	checkpoints    int
	faults         int
	degraded       []string
}

// analyze folds a trace into its statistics. Only evaluation events
// contribute to the convergence curve, so the curve is reconstructable
// from a trace alone — no Result needed.
func analyze(events []obs.Event) *traceStats {
	st := &traceStats{
		events:   len(events),
		byStatus: map[string]int{},
		bestRun:  math.Inf(1),
	}
	phases := map[string]*phaseTime{}
	phase := func(name string) *phaseTime {
		p, ok := phases[name]
		if !ok {
			p = &phaseTime{name: name}
			phases[name] = p
		}
		return p
	}
	for _, e := range events {
		switch e.Kind {
		case obs.KindSearchStart:
			st.algorithm, st.problem = e.Algo, e.Problem
		case obs.KindSearchFinish:
			st.clock = e.Elapsed
		case obs.KindEval:
			st.evals++
			st.byStatus[e.Status]++
			if e.N > 0 {
				st.retried++
				st.retries += e.N
			}
			if e.Elapsed > st.clock {
				st.clock = e.Elapsed
			}
			if e.Status == "ok" && e.Value < st.bestRun {
				st.bestRun = e.Value
				st.bestSeq = e.Seq
				st.bestClock = e.Elapsed
				st.curve = append(st.curve, curvePoint{
					seq: e.Seq, clock: e.Elapsed, best: e.Value, config: e.Config,
				})
			}
		case obs.KindSkip:
			st.skipped++
		case obs.KindCacheHit:
			st.cacheHit++
		case obs.KindFault:
			st.faults++
		case obs.KindDegraded:
			st.degraded = append(st.degraded, e.Detail)
		case obs.KindModelPredict:
			p := phase("model-predict/" + e.Detail)
			p.events++
			p.calls += e.N
			p.dur += e.Dur
		case obs.KindModelFit:
			p := phase("model-fit/" + e.Detail)
			p.events++
			p.calls += e.N
			p.dur += e.Dur
		case obs.KindJournalAppend:
			st.journalAppends++
			p := phase("journal-append")
			p.events++
			p.calls++
			p.dur += e.Dur
		case obs.KindCheckpoint:
			st.checkpoints++
			p := phase("checkpoint")
			p.events++
			p.calls++
			p.dur += e.Dur
		}
	}
	for _, p := range phases {
		st.phases = append(st.phases, *p)
	}
	sort.Slice(st.phases, func(a, b int) bool {
		if st.phases[a].dur != st.phases[b].dur {
			return st.phases[a].dur > st.phases[b].dur
		}
		return st.phases[a].name < st.phases[b].name
	})
	return st
}

// bestSoFar reconstructs the full best-so-far trajectory (one entry per
// evaluation, +Inf before the first clean measurement) from the trace's
// evaluation events — the same sequence Result.BestSoFar returns.
func bestSoFar(events []obs.Event) []float64 {
	var out []float64
	best := math.Inf(1)
	for _, e := range events {
		if e.Kind != obs.KindEval {
			continue
		}
		if e.Status == "ok" && !math.IsInf(e.Value, 0) && !math.IsNaN(e.Value) && e.Value < best {
			best = e.Value
		}
		out = append(out, best)
	}
	return out
}

func render(w io.Writer, st *traceStats) {
	fmt.Fprintf(w, "trace: %d events\n\n", st.events)

	fmt.Fprintln(w, "run")
	fmt.Fprintf(w, "  algorithm:    %s\n", orDash(st.algorithm))
	fmt.Fprintf(w, "  problem:      %s\n", orDash(st.problem))
	fmt.Fprintf(w, "  evaluations:  %d (%s)\n", st.evals, statusLine(st))
	fmt.Fprintf(w, "  skipped:      %d\n", st.skipped)
	if st.cacheHit > 0 {
		fmt.Fprintf(w, "  cache hits:   %d\n", st.cacheHit)
	}
	if st.faults > 0 {
		fmt.Fprintf(w, "  faults:       %d\n", st.faults)
	}
	for _, d := range st.degraded {
		fmt.Fprintf(w, "  degraded:     %s\n", d)
	}
	if !math.IsInf(st.bestRun, 0) {
		fmt.Fprintf(w, "  best run:     %.4f s (evaluation %d, clock %.1f s)\n",
			st.bestRun, st.bestSeq+1, st.bestClock)
	}
	fmt.Fprintf(w, "  search clock: %.1f s\n", st.clock)

	if len(st.phases) > 0 {
		var total time.Duration
		for _, p := range st.phases {
			total += p.dur
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "wall-time breakdown")
		fmt.Fprintf(w, "  %-28s %8s %8s %12s %7s\n", "phase", "events", "calls", "wall", "share")
		for _, p := range st.phases {
			share := 0.0
			if total > 0 {
				share = 100 * float64(p.dur) / float64(total)
			}
			fmt.Fprintf(w, "  %-28s %8d %8d %12s %6.1f%%\n",
				p.name, p.events, p.calls, p.dur.Round(time.Microsecond), share)
		}
		fmt.Fprintf(w, "  %-28s %8s %8s %12s\n", "total", "", "", total.Round(time.Microsecond))
	}

	if len(st.curve) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "convergence (best-so-far)")
		fmt.Fprintf(w, "  %6s %12s %12s   %s\n", "eval", "clock(s)", "best(s)", "config")
		for _, c := range st.curve {
			fmt.Fprintf(w, "  %6d %12.1f %12.4f   %s\n", c.seq+1, c.clock, c.best, c.config)
		}
	}
}

func statusLine(st *traceStats) string {
	parts := make([]string, 0, len(st.byStatus)+1)
	for _, s := range sortedStatusKeys(st.byStatus) {
		parts = append(parts, fmt.Sprintf("%d %s", st.byStatus[s], s))
	}
	if st.retried > 0 {
		parts = append(parts, fmt.Sprintf("%d retried (%d extra attempts)", st.retried, st.retries))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}

func sortedStatusKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// attemptSpan is one dispatch attempt of a task, stitched from the span
// events that share its (seq, attempt) pair — the coordinator's
// dispatch/lease/result stages and the worker's worker-eval stage,
// possibly read from different files.
type attemptSpan struct {
	dispatchWall int64
	leaseWall    int64
	evalWall     int64
	resultWall   int64
	worker       string // dispatch target (remote worker label)
	evalWorker   string // who actually ran it (worker-eval emitter)
	evalDur      time.Duration
	hedgeLoss    bool
}

// taskSpan is one task's stitched causal chain.
type taskSpan struct {
	seq         int
	enqueueWall int64
	attempts    map[int]*attemptSpan
}

// workerUtil accumulates one worker's share of the evaluation work.
type workerUtil struct {
	label string
	evals int
	busy  time.Duration
}

// distTrace is the stitched distributed view of a merged trace: every
// span event folded into per-task chains and per-worker utilization.
type distTrace struct {
	traceID string
	spans   int
	evals   int // worker-eval spans: evaluations that actually ran
	hedges  int // hedge-loss spans: dispatches that lost the claim race
	tasks   map[int]*taskSpan
	workers map[string]*workerUtil
}

// stitch folds span events into the distributed view, or nil when the
// merged trace carries no spans (a plain single-process trace).
func stitch(events []obs.Event) *distTrace {
	d := &distTrace{tasks: map[int]*taskSpan{}, workers: map[string]*workerUtil{}}
	for _, e := range events {
		if e.Kind != obs.KindSpan {
			continue
		}
		d.spans++
		if d.traceID == "" {
			d.traceID = e.Trace
		}
		t := d.tasks[e.Seq]
		if t == nil {
			t = &taskSpan{seq: e.Seq, attempts: map[int]*attemptSpan{}}
			d.tasks[e.Seq] = t
		}
		att := func() *attemptSpan {
			a := t.attempts[e.N]
			if a == nil {
				a = &attemptSpan{}
				t.attempts[e.N] = a
			}
			return a
		}
		switch e.Detail {
		case "task": // task anchor: structure only
		case "attempt":
			att()
		case "enqueue":
			if t.enqueueWall == 0 || (e.Wall != 0 && e.Wall < t.enqueueWall) {
				t.enqueueWall = e.Wall
			}
		case "dispatch":
			a := att()
			a.dispatchWall = e.Wall
			a.worker = e.Worker
		case "lease":
			att().leaseWall = e.Wall
		case "worker-eval":
			a := att()
			a.evalWall = e.Wall
			a.evalWorker = e.Worker
			a.evalDur = e.Dur
			d.evals++
			wu := d.workers[e.Worker]
			if wu == nil {
				wu = &workerUtil{label: e.Worker}
				d.workers[e.Worker] = wu
			}
			wu.evals++
			wu.busy += e.Dur
		case "result":
			att().resultWall = e.Wall
		case "hedge-loss":
			att().hedgeLoss = true
			d.hedges++
		}
	}
	if d.spans == 0 {
		return nil
	}
	return d
}

// wallDelta renders b-a as a duration, or "-" when either side of the
// pair is missing (its span was lost with a torn file or dead worker).
func wallDelta(a, b int64) string {
	if a == 0 || b == 0 || b < a {
		return "-"
	}
	return time.Duration(b - a).Round(time.Microsecond).String()
}

// attemptTree renders a task's attempts in dispatch order: the worker
// that ran (or lost) each attempt, "!" marking a hedge loss.
func attemptTree(t *taskSpan) string {
	ids := make([]int, 0, len(t.attempts))
	for id := range t.attempts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		a := t.attempts[id]
		label := a.evalWorker
		if label == "" {
			label = a.worker
		}
		if label == "" {
			label = "?"
		}
		if a.hedgeLoss {
			label += "!"
		}
		parts = append(parts, label)
	}
	return strings.Join(parts, " ")
}

func renderDistributed(w io.Writer, d *distTrace) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, "distributed trace")
	fmt.Fprintf(w, "  trace id:     %s\n", orDash(d.traceID))
	fmt.Fprintf(w, "  spans:        %d\n", d.spans)
	fmt.Fprintf(w, "  tasks:        %d\n", len(d.tasks))
	fmt.Fprintf(w, "  evaluations:  %d (reconstructed from worker-eval spans)\n", d.evals)
	if d.hedges > 0 {
		fmt.Fprintf(w, "  hedge losses: %d\n", d.hedges)
	}

	seqs := make([]int, 0, len(d.tasks))
	for seq := range d.tasks {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-task timeline")
	fmt.Fprintf(w, "  %6s %10s %10s %10s %10s %8s   %s\n",
		"task", "queue", "lease", "eval", "total", "attempts", "workers")
	for _, seq := range seqs {
		t := d.tasks[seq]
		// The winning attempt: the one that produced a result (or, for a
		// chain cut short, the highest-numbered one).
		ids := make([]int, 0, len(t.attempts))
		for id := range t.attempts {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var win *attemptSpan
		for _, id := range ids {
			a := t.attempts[id]
			if win == nil || a.resultWall != 0 {
				win = a
			}
		}
		if win == nil {
			win = &attemptSpan{}
		}
		eval := "-"
		if win.evalDur > 0 {
			eval = win.evalDur.Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "  %6d %10s %10s %10s %10s %8d   %s\n",
			seq+1,
			wallDelta(t.enqueueWall, win.dispatchWall),
			wallDelta(win.dispatchWall, win.leaseWall),
			eval,
			wallDelta(t.enqueueWall, win.resultWall),
			len(t.attempts),
			attemptTree(t))
	}

	if len(d.workers) > 0 {
		labels := make([]string, 0, len(d.workers))
		var busy time.Duration
		for l, wu := range d.workers {
			labels = append(labels, l)
			busy += wu.busy
		}
		sort.Strings(labels)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "worker utilization")
		fmt.Fprintf(w, "  %-16s %8s %12s %7s\n", "worker", "evals", "busy", "share")
		for _, l := range labels {
			wu := d.workers[l]
			share := 0.0
			if busy > 0 {
				share = 100 * float64(wu.busy) / float64(busy)
			}
			fmt.Fprintf(w, "  %-16s %8d %12s %6.1f%%\n",
				l, wu.evals, wu.busy.Round(time.Microsecond), share)
		}
	}
}
