package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/evalcache"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
	"repro/internal/stats"
)

// How the load generator polls. The daemon runs sessions in submission
// order, so only the oldest outstanding sessions are polled: a younger
// one rarely finishes first. The open loop polls each of its four
// oldest (its backlog is short, so that is every session) at most once
// per millisecond: the resolution of every service latency. A burst
// only needs its makespan, so it polls just the oldest session, every
// 5 ms; polling a burst's backlog every millisecond takes enough of the
// daemon's CPU to move its throughput.
type pollPolicy struct {
	window   int
	interval time.Duration
}

var (
	openPolls  = pollPolicy{window: 4, interval: time.Millisecond}
	burstPolls = pollPolicy{window: 1, interval: 5 * time.Millisecond}
)

// openShare is the part of the run the open loop takes; the burst,
// sized to last about the rest, follows it.
const openShare = 0.8

// request is the daemon's submission body (internal/service.Request).
type request struct {
	Kernel    string  `json:"kernel"`
	Machine   string  `json:"machine"`
	Algorithm string  `json:"algorithm"`
	Budget    int     `json:"budget"`
	Seed      uint64  `json:"seed"`
	Faults    float64 `json:"faults,omitempty"`
}

// sessionRequestFor deals session i's request over the search kinds.
// One kind in five, the same ones for every seed, carries faults 0.1,
// so a whole round's mix of faulty sessions does not depend on the
// seed either; the session's own seed is drawn per session.
func sessionRequestFor(seed uint64, i, budget int) request {
	k, problem, algo, m := searchKind(seed, "session", i)
	req := request{
		Kernel: problem, Algorithm: algo, Machine: m, Budget: budget,
		Seed: rng.NewNamed(seed, "session-"+strconv.Itoa(i)).Uint64(),
	}
	if k%5 == 0 {
		req.Faults = 0.1
	}
	return req
}

// statusJSON is the part of GET /sessions/{id} the benchmark reads.
type statusJSON struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Evaluations int    `json:"evaluations"`
	CacheHits   int    `json:"cache_hits"`
	CacheMisses int    `json:"cache_misses"`
	Error       string `json:"error"`
}

// resultBody is GET /sessions/{id}/result.
type resultBody struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	Problem   string `json:"problem"`
	Skipped   int    `json:"skipped"`
	Records   []struct {
		Config  []int    `json:"config"`
		Run     *float64 `json:"run"`
		Cost    float64  `json:"cost"`
		Elapsed float64  `json:"elapsed"`
		Status  string   `json:"status"`
		Retries int      `json:"retries"`
	} `json:"records"`
}

// searchResult converts a result body back into the search.Result the
// daemon serialized (a failed record's omitted run time is +Inf).
func (b resultBody) searchResult() (*search.Result, error) {
	res := &search.Result{Algorithm: b.Algorithm, Problem: b.Problem, Skipped: b.Skipped}
	for _, rj := range b.Records {
		st, err := search.ParseStatus(rj.Status)
		if err != nil {
			return nil, err
		}
		rec := search.Record{
			Config: space.Config(rj.Config), RunTime: math.Inf(1), Cost: rj.Cost,
			Elapsed: rj.Elapsed, Status: st, Retries: rj.Retries,
		}
		if rj.Run != nil {
			rec.RunTime = *rj.Run
		}
		res.Records = append(res.Records, rec)
	}
	return res, nil
}

// session is one submitted session as the client saw it. Times are
// offsets from the load generator's epoch.
type session struct {
	idx    int
	req    request
	due    time.Duration // open loop: when the schedule wanted it sent
	traced bool

	submitStart, ack, active, done time.Duration
	resultStart, resultEnd         time.Duration
	polls                          [][2]time.Duration
	lastPoll                       time.Duration
	polling                        bool

	id     string
	status statusJSON
	body   []byte
	result *search.Result
	err    error
}

// daemon is one running cmd/autotuned process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// addrWriter receives the daemon's stdout and hands over the address
// from its "listening on http://ADDR" line.
type addrWriter struct {
	buf  []byte
	ch   chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		if addr, ok := strings.CutPrefix(string(w.buf[:i]), "listening on http://"); ok {
			w.ch <- addr
			w.sent = true
		}
	}
	return len(p), nil
}

// tailLog keeps the end of the daemon's standard error for error
// messages. It stays in memory: the daemon logs every session, and
// writing that to a file would add write-back to the disk the journal
// fsyncs on.
type tailLog struct {
	mu  sync.Mutex
	buf []byte
}

const tailLogBytes = 8 << 10

func (l *tailLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if n := len(l.buf); n > tailLogBytes {
		l.buf = append(l.buf[:0], l.buf[n-tailLogBytes:]...)
	}
	return len(p), nil
}

func (l *tailLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(bytes.TrimSpace(l.buf))
}

// startDaemon starts autotuned on a free port with nproc runners and
// returns it once /healthz answers, with the seconds that took (from
// exec, so a -cache import is included).
func startDaemon(bin, root, cacheFile string, hc *http.Client) (*daemon, float64, error) {
	args := []string{"-root", root, "-addr", "127.0.0.1:0", "-sessions", strconv.Itoa(runtime.NumCPU()), "-queue", "65536"}
	if cacheFile != "" {
		args = append(args, "-cache", cacheFile)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	addr := make(chan string, 1)
	cmd.Stdout = &addrWriter{ch: addr}
	log := &tailLog{}
	cmd.Stderr = log
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, 0, fmt.Errorf("autotuned exited before listening: %s", log)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("autotuned did not listen within 60s: %s", log)
	}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("autotuned /healthz not OK within 60s: %s", log)
		}
		time.Sleep(openPolls.interval)
	}
}

// stop kills the daemon and waits until it has exited. Its state is
// scratch, so there is nothing for a graceful shutdown (which would
// export the cache) to save.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression: true,
		},
		Timeout: 60 * time.Second,
	}
}

// getBody GETs url and returns the body, failing on a non-2xx status.
func getBody(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// loadGen submits sessions on one connection and polls them on the
// others, so it never holds more than nproc connections.
type loadGen struct {
	hc    *http.Client
	base  string
	epoch time.Time

	mu          sync.Mutex
	outstanding []*session
	submitting  bool
	polls       pollPolicy
	kick        chan struct{}
}

func newLoadGen(hc *http.Client, base string) *loadGen {
	return &loadGen{hc: hc, base: base, epoch: time.Now(), kick: make(chan struct{}, 1)}
}

func (g *loadGen) now() time.Duration { return time.Since(g.epoch) }

func (g *loadGen) wake() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// phase submits sessions — at their due offsets when rate > 0 (open
// loop), back to back otherwise (burst) — and returns when every one
// has finished. It returns the phase's start offset.
func (g *loadGen) phase(ctx context.Context, sessions []*session, rate float64) time.Duration {
	start := g.now()
	g.mu.Lock()
	g.submitting = true
	g.polls = burstPolls
	if rate > 0 {
		g.polls = openPolls
	}
	g.mu.Unlock()
	var wg sync.WaitGroup
	for k := 0; k < max(1, runtime.NumCPU()-1); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.poll(ctx)
		}()
	}
	for i, s := range sessions {
		if rate > 0 {
			s.due = start + time.Duration(float64(i)/rate*float64(time.Second))
			if wait := s.due - g.now(); wait > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(wait):
				}
			}
		} else {
			s.due = g.now()
		}
		if ctx.Err() != nil {
			s.err = ctx.Err()
			continue
		}
		g.submit(s)
	}
	g.mu.Lock()
	g.submitting = false
	g.mu.Unlock()
	g.wake()
	wg.Wait()
	return start
}

func (g *loadGen) submit(s *session) {
	body, err := json.Marshal(s.req)
	if err != nil {
		s.err = err
		return
	}
	s.submitStart = g.now()
	resp, err := g.hc.Post(g.base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		s.ack = g.now()
		s.err = err
		return
	}
	raw, rerr := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	s.ack = g.now()
	var st statusJSON
	switch {
	case rerr != nil:
		s.err = rerr
	case cerr != nil:
		s.err = cerr
	case resp.StatusCode != http.StatusCreated:
		s.err = fmt.Errorf("POST /sessions: %s: %s", resp.Status, bytes.TrimSpace(raw))
	default:
		s.err = json.Unmarshal(raw, &st)
	}
	if s.err != nil {
		return
	}
	s.id = st.ID
	g.mu.Lock()
	s.lastPoll = s.ack - g.polls.interval
	g.outstanding = append(g.outstanding, s)
	g.mu.Unlock()
	g.wake()
}

// poll polls the oldest outstanding sessions, each at most once per
// poll interval, until submission has ended and none is outstanding.
func (g *loadGen) poll(ctx context.Context) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for ctx.Err() == nil {
		g.mu.Lock()
		if !g.submitting && len(g.outstanding) == 0 {
			g.mu.Unlock()
			return
		}
		now := g.now()
		var pick *session
		wait := g.polls.interval
		for k := 0; k < len(g.outstanding) && k < g.polls.window; k++ {
			s := g.outstanding[k]
			if s.polling {
				continue
			}
			if next := s.lastPoll + g.polls.interval; next <= now {
				pick = s
				break
			} else if next-now < wait {
				wait = next - now
			}
		}
		if pick != nil {
			pick.polling = true
		}
		g.mu.Unlock()
		if pick == nil {
			timer.Reset(wait)
			select {
			case <-g.kick:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			case <-ctx.Done():
			}
			continue
		}
		g.pollOnce(pick)
	}
}

// pollOnce polls one session; a finished session leaves the
// outstanding list after its result is fetched.
func (g *loadGen) pollOnce(s *session) {
	t0 := g.now()
	raw, err := getBody(g.hc, g.base+"/sessions/"+s.id)
	t1 := g.now()
	s.polls = append(s.polls, [2]time.Duration{t0, t1})
	finished := false
	if err == nil {
		err = json.Unmarshal(raw, &s.status)
	}
	switch {
	case err != nil:
		s.err, finished = err, true
	case s.status.State == "pending":
	case s.status.State == "running":
		if s.active == 0 {
			s.active = t1
		}
	case s.status.State == "done":
		if s.active == 0 {
			s.active = t1
		}
		s.done = t1
		finished = true
		s.resultStart = g.now()
		s.body, s.err = getBody(g.hc, g.base+"/sessions/"+s.id+"/result")
		s.resultEnd = g.now()
	default:
		s.err = fmt.Errorf("session %s ended %s: %s", s.id, s.status.State, s.status.Error)
		finished = true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s.lastPoll = t0
	s.polling = false
	if finished {
		for k, o := range g.outstanding {
			if o == s {
				g.outstanding = append(g.outstanding[:k], g.outstanding[k+1:]...)
				break
			}
		}
	}
}

// svcRun collects one service run's sessions and daemon facts.
type svcRun struct {
	open, burst     []*session
	openStart       time.Duration
	burstStart      time.Duration
	end             time.Duration
	setup           []float64
	rssMB           float64
	entries         float64
	root            string // the measured daemon's state directory
	artifactBytes   float64
	importSeconds   float64
	replicaEvalUS   float64
	replicaSessions int
}

func (r *svcRun) all() []*session { return append(append([]*session{}, r.open...), r.burst...) }

// bootReps boots the daemon BootReps times, each on a fresh state
// directory (importing cacheFile, when given), and keeps the last one
// running. setup_s is the median boot time. A killed daemon never
// exports its cache, so every boot imports the same artifact.
func bootReps(cfg config, scratch, cacheFile string, hc *http.Client, run *svcRun) (*daemon, error) {
	var d *daemon
	for k := 0; k < cfg.p.BootReps; k++ {
		if d != nil {
			d.stop()
		}
		root := filepath.Join(scratch, "root-"+strconv.Itoa(k))
		var secs float64
		var err error
		d, secs, err = startDaemon(cfg.daemon, root, cacheFile, hc)
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, secs)
		run.root = root
	}
	return d, nil
}

// timedPhases sends nOpen sessions evenly over openShare of the run and
// then a burst of nBurst. reqFor gives session i's request.
func timedPhases(ctx context.Context, cfg config, d *daemon, hc *http.Client, nOpen, nBurst int, reqFor func(i int) request, run *svcRun) {
	rate := float64(nOpen) / (openShare * cfg.seconds)
	for i := 0; i < nOpen+nBurst; i++ {
		s := &session{idx: i, req: reqFor(i), traced: cfg.trace && i%2 == 0}
		if i < nOpen {
			run.open = append(run.open, s)
		} else {
			run.burst = append(run.burst, s)
		}
	}
	// The daemon fsyncs every evaluation, so write-back still pending
	// from set-up (freshly linked binaries, the pre-fill's journals,
	// state removed by an earlier run) would slow the timed phases by
	// however much of it the kernel happens to flush then. Flush it now.
	syscall.Sync()
	g := newLoadGen(hc, d.base)
	run.openStart = g.phase(ctx, run.open, rate)
	run.burstStart = g.phase(ctx, run.burst, 0)
	run.end = g.now()
	run.rssMB = peakRSSMB(d.pid())
	if raw, err := getBody(hc, d.base+"/cache/stats"); err == nil {
		var st struct {
			Entries float64 `json:"entries"`
		}
		if json.Unmarshal(raw, &st) == nil {
			run.entries = st.Entries
		}
	}
}

// checkSessions parses every session's result, checks what must hold
// for any seed, and returns the per-session digests in index order.
func checkSessions(res *outcome, sessions []*session, budget int) []string {
	digests := make([]string, len(sessions))
	for i, s := range sessions {
		res.attempted++
		digests[i] = "error"
		if s.err != nil {
			res.failed++
			res.fail("session %d (%s): %v", s.idx, s.id, s.err)
			continue
		}
		var body resultBody
		if err := json.Unmarshal(s.body, &body); err != nil {
			res.failed++
			res.fail("session %d (%s): result: %v", s.idx, s.id, err)
			continue
		}
		r, err := body.searchResult()
		if err != nil {
			res.failed++
			res.fail("session %d (%s): result: %v", s.idx, s.id, err)
			continue
		}
		s.result = r
		n := len(r.Records)
		if n != s.status.Evaluations || n == 0 || n > budget || (s.req.Algorithm == "rs" && n != budget) {
			res.fail("session %d (%s): %d records, %d evaluations reported, budget %d", s.idx, s.id, n, s.status.Evaluations, budget)
		}
		digests[i] = resultDigest(r)
	}
	return digests
}

// replicate re-runs a sample of sessions in process, through the same
// public constructors and search set-up the daemon uses, and checks
// that the daemon's records are bit-identical. The simulator calls are
// timed: the sample's mean evaluate time stands in for the daemon's.
func replicate(ctx context.Context, res *outcome, sessions []*session, every int, run *svcRun) {
	t := newTracer()
	for _, s := range sessions {
		if s.idx%every != 0 || s.result == nil {
			continue
		}
		base, err := buildProblem(s.req.Kernel, s.req.Machine)
		if err != nil {
			res.fail("session %d: %v", s.idx, err)
			continue
		}
		var p search.Problem = timedProblem{Problem: base, t: t, trace: s.idx}
		if s.req.Faults > 0 {
			p = search.NewResilient(faults.Wrap(p, faults.Profile(s.req.Machine).ScaledTo(s.req.Faults), s.req.Seed),
				search.ResilientOptions{Retries: 2})
		}
		want := runSearch(ctx, p, s.req.Algorithm, s.req.Budget, s.req.Seed)
		if got, exp := resultDigest(s.result), resultDigest(want); got != exp {
			res.fail("session %d (%s %s@%s seed %d): daemon digest %s, in-process %s",
				s.idx, s.req.Algorithm, s.req.Kernel, s.req.Machine, s.req.Seed, got, exp)
		}
		run.replicaSessions++
	}
	if st := summarize(t.spans).stat("sim.evaluate"); st.Calls > 0 {
		run.replicaEvalUS = float64(st.Total) / float64(st.Calls) / 1e3
	}
}

// serviceMetrics fills the end-to-end and per-layer metrics of a
// service run.
func serviceMetrics(cfg config, res *outcome, run *svcRun, scratch string) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var lat, tracedLat, untracedLat, late, submit, polls, result, queue, runT []float64
	pollCalls := 0
	for _, s := range run.open {
		if s.err != nil {
			continue
		}
		l := (s.done - s.due).Seconds()
		lat = append(lat, l)
		if s.traced {
			tracedLat = append(tracedLat, l)
		} else {
			untracedLat = append(untracedLat, l)
		}
		late = append(late, ms(s.submitStart-s.due))
		submit = append(submit, ms(s.ack-s.submitStart))
		for _, p := range s.polls {
			polls = append(polls, ms(p[1]-p[0]))
		}
		pollCalls += len(s.polls)
		result = append(result, ms(s.resultEnd-s.resultStart))
		queue = append(queue, ms(s.active-s.ack))
		runT = append(runT, ms(s.done-s.active))
	}
	evals, hits, misses := 0, 0, 0
	for _, s := range run.all() {
		evals += s.status.Evaluations
		hits += s.status.CacheHits
		misses += s.status.CacheMisses
	}
	m := res.metrics
	m["setup_s"] = stats.Median(run.setup)
	m["latency_p50_s"] = stats.Quantile(lat, 0.5)
	m["latency_p90_s"] = stats.Quantile(lat, 0.9)
	m["throughput_per_s"] = float64(len(run.burst)) / (run.end - run.burstStart).Seconds()
	m["evals_per_s"] = float64(evals) / (run.end - run.openStart).Seconds()
	m["peak_rss_mb"] = run.rssMB
	if !cfg.trace {
		return
	}
	m["bench.gen_late_p99_ms"] = stats.Quantile(late, 0.99)
	m["http.submit.p50_ms"] = stats.Median(submit)
	m["http.poll.p50_ms"] = stats.Median(polls)
	m["http.poll.calls"] = float64(pollCalls) / float64(max(1, len(lat)))
	m["http.result.p50_ms"] = stats.Median(result)
	m["service.queue_wait.p50_ms"] = stats.Median(queue)
	m["service.run.p50_ms"] = stats.Median(runT)
	m["service.run.p90_ms"] = stats.Quantile(runT, 0.9)
	m["trace.overhead_share"] = stats.Median(tracedLat)/stats.Median(untracedLat) - 1
	if hits+misses > 0 {
		m["evalcache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["evalcache.entries"] = run.entries
	m["evalcache.artifact_bytes"] = run.artifactBytes
	m["evalcache.import_s"] = run.importSeconds
	n := float64(len(run.all()))
	m["sim.evaluate.calls"] = float64(misses) / n
	m["sim.evaluate.mean_us"] = run.replicaEvalUS
	m["sim.evaluate.busy_s"] = float64(misses) / n * run.replicaEvalUS / 1e6
	m["journal.append.mean_us"] = shadowJournal(res, run.all(), scratch)
	m["journal.bytes_per_session"] = sessionBytes(run.root)

	t := newTracer()
	for _, s := range run.open {
		if !s.traced || s.err != nil {
			continue
		}
		root := t.record(span{Trace: s.idx, Name: "session", Start: int64(s.due), End: int64(s.resultEnd)})
		t.record(span{Trace: s.idx, Parent: root, Name: "http.submit", Start: int64(s.submitStart), End: int64(s.ack)})
		qw := t.record(span{Trace: s.idx, Parent: root, Name: "service.queue_wait", Start: int64(s.ack), End: int64(s.active)})
		rn := t.record(span{Trace: s.idx, Parent: root, Name: "service.run", Start: int64(s.active), End: int64(s.done)})
		for _, p := range s.polls {
			parent := rn
			if p[1] <= s.active && s.active > s.ack {
				parent = qw
			}
			t.record(span{Trace: s.idx, Parent: parent, Name: "http.poll", Start: int64(p[0]), End: int64(p[1])})
		}
		t.record(span{Trace: s.idx, Parent: root, Name: "http.result", Start: int64(s.resultStart), End: int64(s.resultEnd)})
	}
	res.spans = t.spans
	sum := summarize(t.spans)
	if st := sum.stat("session"); st.Calls > 0 {
		m["core.unaccounted_s"] = float64(st.Self) / float64(st.Calls) / 1e9
		m["core.unaccounted_share"] = float64(st.Self) / float64(st.Total)
	}
}

// shadowJournal replays a sample of sessions' records through
// journal.Create/Append/Close in the scratch directory and returns the
// mean Append time in microseconds.
func shadowJournal(res *outcome, sessions []*session, scratch string) float64 {
	var total time.Duration
	appends := 0
	for _, s := range sessions {
		if s.idx%16 != 0 || s.result == nil {
			continue
		}
		js, err := journal.Create(filepath.Join(scratch, "shadow-journal", strconv.Itoa(s.idx)),
			journal.Meta{Problem: s.result.Problem, Algorithm: s.result.Algorithm, Seed: s.req.Seed, NMax: s.req.Budget})
		if err != nil {
			res.fail("shadow journal: %v", err)
			return 0
		}
		for _, rec := range s.result.Records {
			t0 := time.Now()
			err := js.Append(rec)
			total += time.Since(t0)
			appends++
			if err != nil {
				res.fail("shadow journal append: %v", err)
				break
			}
		}
		if err := js.Close(); err != nil {
			res.fail("shadow journal close: %v", err)
		}
	}
	if appends == 0 {
		return 0
	}
	return float64(total) / 1e3 / float64(appends)
}

// sessionBytes is the mean on-disk size of a session directory under
// the daemon's state root.
func sessionBytes(root string) float64 {
	dir := filepath.Join(root, "sessions")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		return 0
	}
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if info, ierr := e.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / float64(len(entries))
}

func runServiceCold(ctx context.Context, cfg config) (*outcome, error) {
	scratch, err := os.MkdirTemp(cfg.work, "service-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	res := newOutcome()
	run := &svcRun{}
	d, err := bootReps(cfg, scratch, "", hc, run)
	if err != nil {
		return nil, err
	}
	timedPhases(ctx, cfg, d, hc, cfg.p.ColdOpen, cfg.p.ColdBurst, func(i int) request {
		return sessionRequestFor(cfg.seed, i, cfg.p.SessionBudget)
	}, run)
	d.stop()

	res.digests = checkSessions(res, run.all(), cfg.p.SessionBudget)
	replicate(ctx, res, run.all(), 8, run)
	if run.replicaSessions == 0 {
		res.fail("no session was replicated in process")
	}
	serviceMetrics(cfg, res, run, scratch)
	return res, nil
}

func runServiceWarm(ctx context.Context, cfg config) (*outcome, error) {
	scratch, err := os.MkdirTemp(cfg.work, "service-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	res := newOutcome()

	// Warm the cache: run every distinct request once on a fresh daemon
	// and export its cache. These results are the reference every timed
	// session must reproduce byte for byte.
	distinct := cfg.p.WarmDistinct
	reqFor := func(i int) request { return sessionRequestFor(cfg.seed, i%distinct, cfg.p.SessionBudget) }
	d, _, err := startDaemon(cfg.daemon, filepath.Join(scratch, "prefill"), "", hc)
	if err != nil {
		return nil, err
	}
	prefill := make([]*session, distinct)
	for i := range prefill {
		prefill[i] = &session{idx: i, req: reqFor(i)}
	}
	newLoadGen(hc, d.base).phase(ctx, prefill, 0)
	artifact, err := getBody(hc, d.base+"/cache")
	d.stop()
	if err != nil {
		return nil, err
	}
	checkSessions(newOutcome(), prefill, cfg.p.SessionBudget)
	for _, s := range prefill {
		if s.err != nil || s.result == nil {
			return nil, fmt.Errorf("prefill session %d: %v", s.idx, s.err)
		}
	}

	cacheFile := filepath.Join(scratch, "cache.json")
	if err := os.WriteFile(cacheFile, artifact, 0o644); err != nil {
		return nil, err
	}
	run := &svcRun{artifactBytes: float64(len(artifact))}
	d, err = bootReps(cfg, scratch, cacheFile, hc, run)
	if err != nil {
		return nil, err
	}
	timedPhases(ctx, cfg, d, hc, cfg.p.WarmOpen, cfg.p.WarmBurst, reqFor, run)
	d.stop()

	res.digests = checkSessions(res, run.all(), cfg.p.SessionBudget)
	for _, s := range run.all() {
		if s.result == nil {
			continue
		}
		ref := prefill[s.idx%distinct]
		if !bytes.Equal(withoutID(s.body, s.id), withoutID(ref.body, ref.id)) {
			res.fail("session %d (%s): result differs from the cold run of request %d", s.idx, s.id, s.idx%distinct)
		}
		if s.status.CacheMisses != 0 {
			res.fail("session %d (%s): %d cache misses on a warm cache", s.idx, s.id, s.status.CacheMisses)
		}
	}
	if cfg.trace {
		t0 := time.Now()
		if _, err := evalcache.New().Import(bytes.NewReader(artifact)); err != nil {
			res.fail("shadow cache import: %v", err)
		}
		run.importSeconds = time.Since(t0).Seconds()
	}
	serviceMetrics(cfg, res, run, scratch)
	return res, nil
}

// withoutID blanks the session id in a result body, leaving the rest
// byte for byte.
func withoutID(body []byte, id string) []byte {
	return bytes.Replace(body, []byte(strconv.Quote(id)), []byte(`""`), 1)
}
