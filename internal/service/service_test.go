package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/search"
)

// newTestServer starts a service over httptest with the given root.
func newTestServer(t *testing.T, ctx context.Context, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// doJSON performs one JSON request and decodes the response into out.
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

// waitState polls a session until it reaches want (or fails the test).
func waitState(t *testing.T, base, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := doJSON(t, "GET", base+"/sessions/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET session: status %d", code)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("session %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %s", id, want)
	return Status{}
}

// controlRun computes the uncached, unserved reference result for req.
func controlRun(t *testing.T, req Request) *search.Result {
	t.Helper()
	req.Normalize()
	sp := req.Spec()
	base, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sp.Build(base)
	var pulls map[string]int
	drive, err := sp.Driver(&pulls)
	if err != nil {
		t.Fatal(err)
	}
	return drive(context.Background(), p)
}

func ataxReq() Request {
	return Request{
		Kernel: "ATAX", Machine: "Sandybridge",
		Algorithm: "rs", Budget: 30, Seed: 11,
		Faults: 0.3, Timeout: 50,
	}
}

func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, context.Background(), Options{Root: t.TempDir()})
	cases := []Request{
		{Kernel: "NOPE", Machine: "Sandybridge", Budget: 5, Seed: 1},
		{Kernel: "ATAX", Machine: "NOPE", Budget: 5, Seed: 1},
		{Kernel: "ATAX", Machine: "Sandybridge", Budget: 0, Seed: 1},
		{Kernel: "ATAX", Machine: "Sandybridge", Budget: 5, Seed: 1, Algorithm: "nope"},
		{Kernel: "ATAX", Machine: "Sandybridge", Budget: 5, Seed: 1, Faults: 1.5},
		{Kernel: "ATAX", Machine: "Sandybridge", Budget: 5, Seed: 1, Timeout: -1},
		{Kernel: "ATAX", Machine: "Sandybridge", Budget: 5, Seed: 1, ThrottleMS: -4},
		{Kernel: "HPL", Machine: "Sandybridge", Compiler: "msvc", Budget: 5, Seed: 1},
	}
	for i, req := range cases {
		var e errorJSON
		if code := doJSON(t, "POST", hs.URL+"/sessions", req, &e); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d (error %q), want 400", i, code, e.Error)
		}
	}
	// Corrupt body: not JSON at all.
	resp, err := http.Post(hs.URL+"/sessions", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt body: status %d, want 400", resp.StatusCode)
	}
	// Unknown fields are refused, catching client-side typos.
	resp, err = http.Post(hs.URL+"/sessions", "application/json",
		bytes.NewReader([]byte(`{"kernel":"ATAX","machine":"Sandybridge","budget":5,"sead":7}`)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestSessionLifecycleAndBitIdentity(t *testing.T) {
	_, hs := newTestServer(t, context.Background(), Options{Root: t.TempDir(), MaxSessions: 2})
	req := ataxReq()

	var st Status
	if code := doJSON(t, "POST", hs.URL+"/sessions", req, &st); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	if st.ID == "" || st.State != StatePending && st.State != StateRunning {
		t.Fatalf("submit returned %+v", st)
	}

	fin := waitState(t, hs.URL, st.ID, StateDone)
	if fin.Evaluations != req.Budget {
		t.Fatalf("done with %d evaluations, want %d", fin.Evaluations, req.Budget)
	}

	var got ResultJSON
	if code := doJSON(t, "GET", hs.URL+"/sessions/"+st.ID+"/result", nil, &got); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	want := resultJSON(st.ID, controlRun(t, req))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("service result diverged from the direct in-process run")
	}

	var best Best
	if code := doJSON(t, "GET", hs.URL+"/sessions/"+st.ID+"/best", nil, &best); code != http.StatusOK {
		t.Fatalf("best: status %d", code)
	}
	cb, ci, ok := controlRun(t, req).Best()
	if !ok {
		t.Fatal("control run found no best")
	}
	if best.RunTime != cb.RunTime || best.FoundAfter != ci+1 || !reflect.DeepEqual(best.Config, []int(cb.Config)) {
		t.Fatalf("best = %+v, control best = %+v at %d", best, cb, ci+1)
	}

	// Unknown ids are 404; best/result on a fresh session conflict.
	if code := doJSON(t, "GET", hs.URL+"/sessions/nope", nil, &errorJSON{}); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
}

func TestResubmitIsServedEntirelyFromCache(t *testing.T) {
	_, hs := newTestServer(t, context.Background(), Options{Root: t.TempDir()})
	req := ataxReq()

	var first Status
	if code := doJSON(t, "POST", hs.URL+"/sessions", req, &first); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	f1 := waitState(t, hs.URL, first.ID, StateDone)
	if f1.CacheMisses != req.Budget || f1.CacheHits != 0 {
		t.Fatalf("cold session counts = (%d hits, %d misses), want (0, %d)",
			f1.CacheHits, f1.CacheMisses, req.Budget)
	}

	var second Status
	if code := doJSON(t, "POST", hs.URL+"/sessions", req, &second); code != http.StatusCreated {
		t.Fatalf("resubmit: status %d", code)
	}
	f2 := waitState(t, hs.URL, second.ID, StateDone)
	if f2.CacheMisses != 0 || f2.CacheHits != req.Budget {
		t.Fatalf("warm session counts = (%d hits, %d misses), want (%d, 0)",
			f2.CacheHits, f2.CacheMisses, req.Budget)
	}

	var r1, r2 ResultJSON
	doJSON(t, "GET", hs.URL+"/sessions/"+first.ID+"/result", nil, &r1)
	doJSON(t, "GET", hs.URL+"/sessions/"+second.ID+"/result", nil, &r2)
	r2.ID = r1.ID
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("cache-served resubmission diverged from the original run")
	}
}

func TestDifferentSeedsShareNoFaultScope(t *testing.T) {
	// With fault injection, the injector seed partitions the cache scope:
	// a different seed must re-evaluate, not reuse the other seed's
	// outcomes.
	_, hs := newTestServer(t, context.Background(), Options{Root: t.TempDir()})
	a, b := ataxReq(), ataxReq()
	b.Seed = 12

	var sa, sb Status
	doJSON(t, "POST", hs.URL+"/sessions", a, &sa)
	waitState(t, hs.URL, sa.ID, StateDone)
	doJSON(t, "POST", hs.URL+"/sessions", b, &sb)
	fb := waitState(t, hs.URL, sb.ID, StateDone)
	if fb.CacheMisses == 0 {
		t.Fatal("different injector seed was served from the other seed's cache scope")
	}
}

func TestCancelRunningSession(t *testing.T) {
	_, hs := newTestServer(t, context.Background(), Options{Root: t.TempDir()})
	req := ataxReq()
	req.Budget = 500
	req.ThrottleMS = 20

	var st Status
	if code := doJSON(t, "POST", hs.URL+"/sessions", req, &st); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, hs.URL, st.ID, StateRunning)
	if code := doJSON(t, "DELETE", hs.URL+"/sessions/"+st.ID, nil, &Status{}); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	fin := waitState(t, hs.URL, st.ID, StateCancelled)
	if fin.Evaluations >= req.Budget {
		t.Fatalf("cancelled session ran its whole %d budget", req.Budget)
	}
	// Cancelling a finished session conflicts.
	var e errorJSON
	if code := doJSON(t, "DELETE", hs.URL+"/sessions/"+st.ID, nil, &e); code != http.StatusOK {
		// Idempotent cancel of a cancelled session succeeds; anything else
		// would be 409.
		t.Fatalf("re-cancel: status %d (%s)", code, e.Error)
	}
}

func TestRestartResumesInterruptedSession(t *testing.T) {
	root := t.TempDir()
	req := ataxReq()
	req.Budget = 60
	req.ThrottleMS = 10

	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1, err := New(ctx1, Options{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let it journal a few evaluations, then take the daemon down the
	// polite-crash way (the SIGKILL variant lives in cmd/autotuned's e2e).
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := srv1.Session(st.ID)
		if cur.Evaluations >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never reached 5 evaluations")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel1()
	srv1.Close()
	cur, _ := srv1.Session(st.ID)
	if cur.State != StateInterrupted {
		t.Fatalf("after shutdown session is %s, want %s", cur.State, StateInterrupted)
	}
	if cur.Evaluations >= req.Budget {
		t.Fatal("session finished before the interruption; shorten the throttle")
	}

	// Restart over the same root: the session is re-queued and resumed.
	_, hs := newTestServer(t, context.Background(), Options{Root: root})
	fin := waitState(t, hs.URL, st.ID, StateDone)
	if !fin.Resumed {
		t.Fatal("resumed session did not report Resumed")
	}
	var got ResultJSON
	if code := doJSON(t, "GET", hs.URL+"/sessions/"+st.ID+"/result", nil, &got); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	noThrottle := req
	noThrottle.ThrottleMS = 0
	want := resultJSON(st.ID, controlRun(t, noThrottle))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed result diverged from an uninterrupted run")
	}
	// The resume continued after the journaled prefix instead of
	// re-running it: only the remainder hit the evaluator.
	if fin.Evaluations != req.Budget {
		t.Fatalf("resumed session holds %d records, want %d", fin.Evaluations, req.Budget)
	}
	if fin.CacheHits+fin.CacheMisses >= req.Budget {
		t.Fatalf("resume re-evaluated the whole budget (%d hits + %d misses of %d)",
			fin.CacheHits, fin.CacheMisses, req.Budget)
	}
}

func TestRestartRecoversFinishedAndCancelledSessions(t *testing.T) {
	root := t.TempDir()
	req := ataxReq()

	ctx1, cancel1 := context.WithCancel(context.Background())
	srv1, hs1 := newTestServer(t, ctx1, Options{Root: root})
	var st Status
	if code := doJSON(t, "POST", hs1.URL+"/sessions", req, &st); code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, hs1.URL, st.ID, StateDone)
	var want ResultJSON
	doJSON(t, "GET", hs1.URL+"/sessions/"+st.ID+"/result", nil, &want)

	cancelReq := ataxReq()
	cancelReq.Budget = 500
	cancelReq.ThrottleMS = 20
	var cs Status
	doJSON(t, "POST", hs1.URL+"/sessions", cancelReq, &cs)
	waitState(t, hs1.URL, cs.ID, StateRunning)
	doJSON(t, "DELETE", hs1.URL+"/sessions/"+cs.ID, nil, &Status{})
	waitState(t, hs1.URL, cs.ID, StateCancelled)
	cancel1()
	srv1.Close()

	srv2, hs2 := newTestServer(t, context.Background(), Options{Root: root})
	got, ok := srv2.Session(st.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("finished session recovered as %+v", got)
	}
	var res ResultJSON
	if code := doJSON(t, "GET", hs2.URL+"/sessions/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result after restart: status %d", code)
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatal("restart changed a finished session's result")
	}
	if got, ok := srv2.Session(cs.ID); !ok || got.State != StateCancelled {
		t.Fatalf("cancelled session recovered as %+v", got)
	}
	// The finished journal warmed the cache: resubmitting runs free.
	var re Status
	doJSON(t, "POST", hs2.URL+"/sessions", req, &re)
	fin := waitState(t, hs2.URL, re.ID, StateDone)
	if fin.CacheMisses != 0 {
		t.Fatalf("post-restart resubmit missed %d times, want 0", fin.CacheMisses)
	}
}

func TestCacheExportImportOverHTTP(t *testing.T) {
	root1 := t.TempDir()
	_, hs1 := newTestServer(t, context.Background(), Options{Root: root1})
	req := ataxReq()
	var st Status
	doJSON(t, "POST", hs1.URL+"/sessions", req, &st)
	waitState(t, hs1.URL, st.ID, StateDone)

	resp, err := http.Get(hs1.URL + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// A second, empty daemon imports the artifact and serves the same
	// session without a single real evaluation.
	_, hs2 := newTestServer(t, context.Background(), Options{Root: t.TempDir()})
	preq, err := http.NewRequest(http.MethodPut, hs2.URL+"/cache", bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Added int `json:"added"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	_ = presp.Body.Close()
	if presp.StatusCode != http.StatusOK || stats.Added != req.Budget {
		t.Fatalf("import: status %d, added %d (want %d)", presp.StatusCode, stats.Added, req.Budget)
	}

	var st2 Status
	doJSON(t, "POST", hs2.URL+"/sessions", req, &st2)
	fin := waitState(t, hs2.URL, st2.ID, StateDone)
	if fin.CacheMisses != 0 {
		t.Fatalf("imported-cache session missed %d times, want 0", fin.CacheMisses)
	}

	// Corrupt artifacts are refused whole.
	breq, err := http.NewRequest(http.MethodPut, hs2.URL+"/cache", bytes.NewReader([]byte(`{"version":9}`)))
	if err != nil {
		t.Fatal(err)
	}
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	_ = bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt import: status %d, want 400", bresp.StatusCode)
	}
}

func TestCorruptSessionDirDoesNotBlockStartup(t *testing.T) {
	root := t.TempDir()
	bad := filepath.Join(root, "sessions", "s-000007")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, requestFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, hs := newTestServer(t, context.Background(), Options{Root: root})
	st, ok := srv.Session("s-000007")
	if !ok || st.State != StateFailed {
		t.Fatalf("corrupt session recovered as %+v", st)
	}
	// The daemon keeps serving, and new ids continue past the corrupt one.
	var fresh Status
	req := Request{Kernel: "ATAX", Machine: "Sandybridge", Budget: 3, Seed: 1}
	if code := doJSON(t, "POST", hs.URL+"/sessions", req, &fresh); code != http.StatusCreated {
		t.Fatalf("submit after corrupt recovery: status %d", code)
	}
	if fresh.ID != "s-000008" {
		t.Fatalf("next id = %s, want s-000008", fresh.ID)
	}
	waitState(t, hs.URL, fresh.ID, StateDone)
}

func TestConcurrentSessionsShareOneCache(t *testing.T) {
	_, hs := newTestServer(t, context.Background(), Options{Root: t.TempDir(), MaxSessions: 4})
	req := ataxReq()
	var ids []string
	for i := 0; i < 4; i++ {
		var st Status
		if code := doJSON(t, "POST", hs.URL+"/sessions", req, &st); code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	var results []ResultJSON
	for _, id := range ids {
		waitState(t, hs.URL, id, StateDone)
		var r ResultJSON
		doJSON(t, "GET", hs.URL+"/sessions/"+id+"/result", nil, &r)
		r.ID = ""
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("concurrent identical session %d diverged", i)
		}
	}
	// Across the four sessions the cache evaluated each configuration at
	// most once.
	var stats cacheStatsJSON
	doJSON(t, "GET", hs.URL+"/cache/stats", nil, &stats)
	if stats.Entries > req.Budget {
		t.Fatalf("cache holds %d entries for a %d-budget request", stats.Entries, req.Budget)
	}
	if stats.Hits+stats.Misses < uint64(4*req.Budget) {
		t.Fatalf("cache saw %d lookups, want >= %d", stats.Hits+stats.Misses, 4*req.Budget)
	}
}

func TestListSessionsAndMetricsEndpoints(t *testing.T) {
	_, hs := newTestServer(t, context.Background(), Options{Root: t.TempDir()})
	req := Request{Kernel: "ATAX", Machine: "Sandybridge", Budget: 5, Seed: 2}
	var st Status
	doJSON(t, "POST", hs.URL+"/sessions", req, &st)
	waitState(t, hs.URL, st.ID, StateDone)

	var list []Status
	if code := doJSON(t, "GET", hs.URL+"/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestPerSessionTraceFileIsWritten(t *testing.T) {
	root := t.TempDir()
	_, hs := newTestServer(t, context.Background(), Options{Root: root, TraceSessions: true})
	req := Request{Kernel: "ATAX", Machine: "Sandybridge", Budget: 5, Seed: 2}
	var st Status
	doJSON(t, "POST", hs.URL+"/sessions", req, &st)
	waitState(t, hs.URL, st.ID, StateDone)
	raw, err := os.ReadFile(filepath.Join(root, "sessions", st.ID, traceFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"eval"`)) {
		t.Fatalf("trace file carries no eval events: %s", raw)
	}
}
