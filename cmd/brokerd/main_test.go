package main

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/journal/crashtest"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestMain lets the test binary impersonate brokerd: a child process
// started with BROKERD_E2E_MAIN=1 runs the real main path, so the e2e
// tests exercise flag parsing, the resolver, dial/reconnect, and signal
// handling without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("BROKERD_E2E_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// brokerdCmd re-executes the test binary as brokerd.
func brokerdCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BROKERD_E2E_MAIN=1")
	return cmd
}

func exitCode(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("running %v: %v\n%s", cmd.Args, err, out)
	return -1
}

// TestUsageErrors pins the flag-validation contract: every bad
// invocation exits 2 before touching the network.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                       // -connect missing
		{"-connect", "x", "-annotation", "none"}, // missing annotation file
		// Tasks name their targets; a worker has no target flags.
		{"-connect", "x", "-machine", "Sandybridge"},
		{"-connect", "x", "-compiler", "gnu-4.4.7"},
		{"-connect", "x", "-threads", "1"},
		// Drivers keep the fault and resilience layers; a worker has no
		// evaluator flags.
		{"-connect", "x", "-faults", "0.3"},
		{"-connect", "x", "-retries", "2"},
		{"-connect", "x", "-timeout", "30"},
		{"-connect", "x", "-seed", "7"},
	}
	for _, args := range cases {
		if code := exitCode(t, brokerdCmd(args...)); code != exitUsage {
			t.Errorf("brokerd %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

// lu is the inline reference problem: the same bare LU kernel a brokerd
// worker builds for its wire name.
func lu(t *testing.T) search.Problem {
	t.Helper()
	m, err := machine.ByName("Sandybridge")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := machine.CompilerByName("gnu-4.4.7")
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.ByName("LU")
	if err != nil {
		t.Fatal(err)
	}
	return kernels.NewProblem(k, sim.Target{Machine: m, Compiler: comp, Threads: 1})
}

// servingPool is the driver side of the e2e tests: a worker pool
// listening on a unix socket in dir.
func servingPool(t *testing.T, dir string, retries int) (*remote.Pool, string) {
	t.Helper()
	addr := "unix:" + filepath.Join(dir, "w.sock")
	pool := remote.NewPool(remote.PoolOptions{
		Retries: retries,
		Backoff: 100 * time.Microsecond,
	})
	ln, err := net.Listen(remote.SplitAddr(addr))
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	pool.Serve(ln)
	t.Cleanup(pool.Close)
	return pool, addr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServesEvaluations runs a full search whose every evaluation is
// served by a brokerd child process over a unix socket, and asserts the
// result is bit-identical to the inline run.
func TestServesEvaluations(t *testing.T) {
	const seed, nmax = 71, 30
	ref := search.RS(context.Background(), lu(t), nmax, rng.New(seed))

	pool, addr := servingPool(t, t.TempDir(), 100)
	cmd := brokerdCmd("-connect", addr, "-label", "e2e-w1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	waitFor(t, "worker session", func() bool { return pool.Sessions() == 1 })

	reg := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), obs.New(obs.NewMetricsSink(reg)))
	res := search.RS(ctx, pool.Problem(lu(t)), nmax, rng.New(seed))

	if leases := reg.Counter(obs.MetricRemoteLeases).Value(); leases == 0 {
		t.Fatal("no remote leases: evaluations never reached the worker")
	}
	// Every evaluation must have been served by the worker process, not
	// degraded inline after exhausted retries — a resolver that rejects
	// the driver's wire names would pass the bit-identity check (the
	// problem is stateless) while silently serving nothing.
	if deg := reg.Counter(obs.MetricDegraded).Value(); deg != 0 {
		t.Fatalf("%d evaluations degraded inline; the worker served nothing", deg)
	}
	if err := crashtest.Compare(ref, res); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerKilledAndReplaced SIGKILLs the worker process mid-campaign
// and starts a replacement: the pool's failure detector reclaims the
// dead session's leases, the submitter re-dispatches, and the second
// search still matches inline. The problem is stateless, so a task that
// died with the worker replays without divergence.
func TestWorkerKilledAndReplaced(t *testing.T) {
	const seed, nmax = 83, 25
	ref := search.RS(context.Background(), lu(t), nmax, rng.New(seed))

	dir := t.TempDir()
	pool, addr := servingPool(t, dir, 100)

	w1 := brokerdCmd("-connect", addr, "-label", "e2e-kill")
	if err := w1.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first worker session", func() bool { return pool.Sessions() == 1 })

	// First search served by w1 proves it is doing real work, then the
	// SIGKILL leaves the pool with a corpse mid-heartbeat.
	reg := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), obs.New(obs.NewMetricsSink(reg)))
	if err := crashtest.Compare(ref, search.RS(ctx, pool.Problem(lu(t)), nmax, rng.New(seed))); err != nil {
		t.Fatalf("before kill: %v", err)
	}
	if leases := reg.Counter(obs.MetricRemoteLeases).Value(); leases == 0 {
		t.Fatal("no remote leases before the kill")
	}
	if err := w1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = w1.Wait()

	// A replacement worker connects; the failure detector buries the
	// dead session and the next search flows to the new one.
	w2 := brokerdCmd("-connect", addr, "-label", "e2e-heir")
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = w2.Process.Kill()
		_ = w2.Wait()
	}()
	waitFor(t, "replacement session", func() bool { return pool.Sessions() >= 1 })

	res := search.RS(context.Background(), pool.Problem(lu(t)), nmax, rng.New(seed))
	if err := crashtest.Compare(ref, res); err != nil {
		t.Fatalf("after kill+replace: %v", err)
	}
}

// TestGracefulShutdownOnSignal starts a connected worker, sends
// SIGTERM, and expects a clean exit 0: workers treat operator signals
// as normal shutdown, not failure.
func TestGracefulShutdownOnSignal(t *testing.T) {
	pool, addr := servingPool(t, t.TempDir(), -1)
	cmd := brokerdCmd("-connect", addr, "-label", "e2e-term")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker session", func() bool { return pool.Sessions() == 1 })
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err != nil {
		t.Fatalf("SIGTERM shutdown: %v (want exit 0)", err)
	}
}

// renamed serves a problem under another wire name.
type renamed struct {
	search.Problem
	name string
}

func (r renamed) Name() string { return r.name }

// served runs a random search over p, a stack over the pool, and
// returns it with the evaluations the pool degraded inline.
func served(p search.Problem, seed uint64) (*search.Result, int64) {
	reg := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), obs.New(obs.NewMetricsSink(reg)))
	res := search.RS(ctx, p, 12, rng.New(seed))
	return res, reg.Counter(obs.MetricDegraded).Value()
}

// startWorker starts a brokerd child process connected to the pool.
func startWorker(t *testing.T, pool *remote.Pool, addr string, flags ...string) {
	t.Helper()
	cmd := brokerdCmd(append([]string{"-connect", addr}, flags...)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	waitFor(t, "worker session", func() bool { return pool.Sessions() == 1 })
}

// TestResolverContract: one brokerd, given no evaluator settings,
// serves every target a sweep names — other machines and compilers,
// forced OpenMP, the mini-apps, off-size kernels — under a driver-side
// fault injector and resilient budgets stacked over the pool, so every
// search is served remotely and bit-identical to the same stack inline.
// A name that is not the name of the problem it builds is refused, and
// its evaluations run inline.
func TestResolverContract(t *testing.T) {
	pool, addr := servingPool(t, t.TempDir(), 2)
	startWorker(t, pool, addr)
	for i, s := range []spec.Spec{
		{Problem: "LU", Machine: "Power7"},
		{Problem: "MM", Machine: "XeonPhi", Compiler: "intel-15.0.1", Threads: 60, ForceOMP: true},
		{Problem: "HPL", Machine: "Power7"},
		{Problem: "MM_n1000", Machine: "Sandybridge"},
	} {
		s.Faults, s.Retries, s.Timeout, s.Seed = 0.3, 2, 30, 7
		base, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		inline, _ := s.Build(base)
		remoteStack, _ := s.Build(pool.Problem(base))
		seed := uint64(40 + i)
		ref := search.RS(context.Background(), inline, 12, rng.New(seed))
		res, degraded := served(remoteStack, seed)
		if degraded != 0 {
			t.Errorf("%s: %d evaluations degraded inline; the worker refused its target", ref.Problem, degraded)
		}
		if counts := ref.Counts(); counts.Failed == 0 && counts.Retried == 0 {
			t.Errorf("%s: the faulted stack injected nothing: %+v", ref.Problem, counts)
		}
		if err := crashtest.Compare(ref, res); err != nil {
			t.Errorf("%s: %v", ref.Problem, err)
		}
	}
	res, degraded := served(pool.Problem(renamed{lu(t), "LU"}), 3)
	if degraded == 0 {
		t.Errorf("the worker served %d evaluations of an unqualified name", len(res.Records))
	}
}

// TestResolverChecksAnnotatedCompiler: the worker serves its annotated
// kernel under the kernel's parsed name on a target that has the
// compiler, and refuses it, with the same check the driver's spec
// makes, on one that does not.
func TestResolverChecksAnnotatedCompiler(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.orio")
	text := `
kernel tiny input 32
size N = 32
array A[N] elem 8
nest n
loop i = 0 .. N
stmt A[i] = A[i] flops 1
param U_I on i unroll 1..4
param T_I on i tile pow2 0..2
param RT_I on i regtile pow2 0..1
`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	pool, addr := servingPool(t, t.TempDir(), 2)
	startWorker(t, pool, addr, "-annotation", path)

	tiny, err := (&spec.Spec{Annotation: path, Machine: "Westmere"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ref := search.RS(context.Background(), tiny, 12, rng.New(5))
	res, degraded := served(pool.Problem(tiny), 5)
	if degraded != 0 {
		t.Errorf("%s: %d evaluations degraded inline; the worker refused its annotated kernel", tiny.Name(), degraded)
	}
	if err := crashtest.Compare(ref, res); err != nil {
		t.Fatal(err)
	}

	const icc = "tiny@Power7/intel-15.0.1/t1"
	_, err = (&spec.Spec{Annotation: path, Machine: "Power7", Compiler: "intel-15.0.1"}).Resolve()
	if err == nil || !strings.Contains(err.Error(), "not available on Power7") {
		t.Fatalf("annotated kernel with icc on Power7: got %v, want a compiler error", err)
	}
	if _, degraded := served(pool.Problem(renamed{tiny, icc}), 5); degraded == 0 {
		t.Errorf("the worker served %s, which its spec refuses", icc)
	}
}
