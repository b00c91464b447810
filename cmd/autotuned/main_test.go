package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestMain lets the test binary impersonate autotuned: a child process
// started with AUTOTUNED_E2E_MAIN=1 runs the real main path, so the e2e
// tests exercise flag parsing, HTTP serving, signal handling, and the
// SIGKILL-restart-resume loop without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("AUTOTUNED_E2E_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// daemon is one running autotuned child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
	exit chan error
}

// logDir returns where daemon stderr logs go: AUTOTUNED_E2E_LOGDIR if
// set (CI uploads it as a failure-only artifact), else the test's temp
// dir.
func logDir(t *testing.T) string {
	if d := os.Getenv("AUTOTUNED_E2E_LOGDIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err == nil {
			return d
		}
	}
	return t.TempDir()
}

// startDaemon launches the daemon on :0 and scrapes the bound address.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "AUTOTUNED_E2E_MAIN=1")
	logPath := filepath.Join(logDir(t), fmt.Sprintf("%s-%s.log", t.Name(), name))
	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = lf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, log: lf, exit: make(chan error, 1)}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-d.exit
		_ = lf.Close()
	})

	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			select {
			case lineCh <- line:
			default:
			}
			// Drain the rest so the child never blocks on stdout.
		}
	}()
	// Closed after the send so every later receive (sigterm, sigkill,
	// cleanup) returns immediately instead of deadlocking on a second
	// read of the one buffered result.
	go func() { d.exit <- cmd.Wait(); close(d.exit) }()
	select {
	case line := <-lineCh:
		const prefix = "listening on http://"
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("daemon printed %q, want %q", line, prefix+"...")
		}
		d.base = "http://" + strings.TrimPrefix(line, prefix)
	case err := <-d.exit:
		t.Fatalf("daemon exited before listening: %v (log: %s)", err, logPath)
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never printed its address (log: %s)", logPath)
	}
	return d
}

// sigkill kills the daemon dead — no drain, no checkpoint flush beyond
// what the journal already made durable.
func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.exit
}

// sigterm asks for a graceful shutdown and waits for a clean exit.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exit:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
}

func exitCode(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AUTOTUNED_E2E_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("running %v: %v\n%s", args, err, out)
	return -1
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// waitSession polls until the predicate holds.
func waitSession(t *testing.T, base, id string, pred func(service.Status) bool, what string) service.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st service.Status
		code := doJSON(t, "GET", base+"/sessions/"+id, nil, &st)
		if code == http.StatusOK {
			if pred(st) {
				return st
			}
			if st.State == service.StateFailed {
				t.Fatalf("session %s failed: %s", id, st.Error)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %s", id, what)
	return service.Status{}
}

func waitDone(t *testing.T, base, id string) service.Status {
	t.Helper()
	return waitSession(t, base, id, func(st service.Status) bool {
		return st.State == service.StateDone
	}, "done")
}

// e2eRequest is the shared faulted ATAX request the e2e tests tune.
func e2eRequest() service.Request {
	return service.Request{
		Kernel: "ATAX", Machine: "Sandybridge",
		Algorithm: "rs", Budget: 30, Seed: 17,
		Faults: 0.3, Timeout: 50,
	}
}

// controlRecords computes the reference trajectory for e2eRequest with
// a direct in-process run: the daemon must match it bit for bit.
func controlRecords(t *testing.T, req service.Request) []search.Record {
	t.Helper()
	m, err := machine.ByName(req.Machine)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := machine.CompilerByName("gnu-4.4.7")
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.ByName(req.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	p := kernels.NewProblem(k, sim.Target{Machine: m, Compiler: comp, Threads: 1})
	inj := faults.Wrap(p, faults.Profile(req.Machine).ScaledTo(req.Faults), req.Seed)
	rp := search.NewResilient(inj, search.ResilientOptions{Retries: 2, Timeout: req.Timeout})
	return search.RS(context.Background(), rp, req.Budget, rng.New(req.Seed)).Records
}

// recordsOf converts a daemon result for comparison against a control.
func recordsOf(t *testing.T, res service.ResultJSON) []search.Record {
	t.Helper()
	out := make([]search.Record, 0, len(res.Records))
	for _, rj := range res.Records {
		st, err := search.ParseStatus(rj.Status)
		if err != nil {
			t.Fatal(err)
		}
		rec := search.Record{
			Config: rj.Config, Cost: rj.Cost, Elapsed: rj.Elapsed,
			Status: st, Retries: rj.Retries,
		}
		if rj.Run != nil {
			rec.RunTime = *rj.Run
		} else {
			rec.RunTime = math.Inf(1)
		}
		out = append(out, rec)
	}
	return out
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // -root missing
		{"-root", "x", "-sessions", "0"},       // no runners
		{"-root", "x", "-queue", "0"},          // no queue
		{"-root", "x", "-broker-workers", "2"}, // retired in-process broker flag
		{"-root", "x", "stray-arg"},
	}
	for _, args := range cases {
		if code := exitCode(t, args...); code != exitUsage {
			t.Errorf("autotuned %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

// TestSubmitPollResubmit is the cache half of the e2e acceptance
// criterion: a completed session's identical resubmission is served
// entirely from the evaluation cache — zero new evaluations — and
// returns a bit-identical result.
func TestSubmitPollResubmit(t *testing.T) {
	root := t.TempDir()
	d := startDaemon(t, "daemon", "-root", root)
	req := e2eRequest()

	var st service.Status
	if code := doJSON(t, "POST", d.base+"/sessions", req, &st); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	fin := waitDone(t, d.base, st.ID)
	if fin.CacheMisses != req.Budget {
		t.Fatalf("cold session ran %d real evaluations, want %d", fin.CacheMisses, req.Budget)
	}
	var res1 service.ResultJSON
	if code := doJSON(t, "GET", d.base+"/sessions/"+st.ID+"/result", nil, &res1); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if want := controlRecords(t, req); !reflect.DeepEqual(want, recordsOf(t, res1)) {
		t.Fatal("daemon result diverged from the direct in-process control run")
	}

	var st2 service.Status
	if code := doJSON(t, "POST", d.base+"/sessions", req, &st2); code != http.StatusCreated {
		t.Fatalf("resubmit: status %d", code)
	}
	fin2 := waitDone(t, d.base, st2.ID)
	if fin2.CacheMisses != 0 {
		t.Fatalf("resubmission ran %d real evaluations, want 0 (cache)", fin2.CacheMisses)
	}
	if fin2.CacheHits != req.Budget {
		t.Fatalf("resubmission hit the cache %d times, want %d", fin2.CacheHits, req.Budget)
	}
	var res2 service.ResultJSON
	doJSON(t, "GET", d.base+"/sessions/"+st2.ID+"/result", nil, &res2)
	res2.ID = res1.ID
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("cache-served resubmission diverged from the original run")
	}

	d.sigterm(t)
}

// TestSIGKILLRestartResume is the crash half of the e2e acceptance
// criterion: a daemon killed with SIGKILL mid-session restarts, resumes
// the session from its journal, and finishes with a result
// bit-identical to an uninterrupted run.
func TestSIGKILLRestartResume(t *testing.T) {
	root := t.TempDir()
	req := e2eRequest()
	req.Budget = 60
	req.ThrottleMS = 15 // wall-time pacing only: keeps the kill mid-session

	d1 := startDaemon(t, "first", "-root", root)
	var st service.Status
	if code := doJSON(t, "POST", d1.base+"/sessions", req, &st); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitSession(t, d1.base, st.ID, func(s service.Status) bool {
		return s.Evaluations >= 5
	}, ">=5 evaluations")
	d1.sigkill(t)

	d2 := startDaemon(t, "second", "-root", root)
	fin := waitDone(t, d2.base, st.ID)
	if !fin.Resumed {
		t.Fatal("restarted session did not report Resumed")
	}
	if fin.Evaluations != req.Budget {
		t.Fatalf("resumed session holds %d records, want %d", fin.Evaluations, req.Budget)
	}
	// The journaled prefix was not re-evaluated: the resume only ran the
	// remainder for real.
	if fin.CacheHits+fin.CacheMisses >= req.Budget {
		t.Fatalf("resume re-ran the whole budget (%d hits + %d misses)", fin.CacheHits, fin.CacheMisses)
	}

	var res service.ResultJSON
	if code := doJSON(t, "GET", d2.base+"/sessions/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	control := req
	control.ThrottleMS = 0
	if want := controlRecords(t, control); !reflect.DeepEqual(want, recordsOf(t, res)) {
		t.Fatal("SIGKILL-resumed result diverged from an uninterrupted run")
	}
	d2.sigterm(t)
}

// TestCachePersistsAcrossRestarts: -cache FILE exports on clean
// shutdown and imports on start, so even a daemon with a fresh root
// serves known work from memory.
func TestCachePersistsAcrossRestarts(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.json")
	req := e2eRequest()

	d1 := startDaemon(t, "first", "-root", t.TempDir(), "-cache", cachePath)
	var st service.Status
	if code := doJSON(t, "POST", d1.base+"/sessions", req, &st); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, d1.base, st.ID)
	d1.sigterm(t)
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("clean shutdown left no cache artifact: %v", err)
	}

	// Fresh root, same cache file: the resubmission runs free.
	d2 := startDaemon(t, "second", "-root", t.TempDir(), "-cache", cachePath)
	var st2 service.Status
	if code := doJSON(t, "POST", d2.base+"/sessions", req, &st2); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	fin := waitDone(t, d2.base, st2.ID)
	if fin.CacheMisses != 0 {
		t.Fatalf("imported-cache session ran %d real evaluations, want 0", fin.CacheMisses)
	}
	d2.sigterm(t)
}
