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
		{"-connect", "x", "-faults", "1.5"},      // rate out of range
		{"-connect", "x", "-faults", "-0.1"},     // negative rate
		{"-connect", "x", "-machine", "NoSuch"},  // unknown machine
		{"-connect", "x", "-compiler", "NoSuch"}, // unknown compiler
		{"-connect", "x", "-threads", "-1"},      // negative thread count
		{"-connect", "x", "-retries", "-1"},      // negative retry budget
		{"-connect", "x", "-timeout", "-1"},      // negative timeout
	}
	for _, args := range cases {
		if code := exitCode(t, brokerdCmd(args...)); code != exitUsage {
			t.Errorf("brokerd %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

// lu is the inline reference problem: the same plain LU kernel stack a
// brokerd worker builds for the default flags (no faults, no budgets).
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

// TestResolverContract pins the resolver used by the worker: known
// names build cached instances, unknown names error, and the cache
// returns the same instance for re-dispatched tasks (the stateful
// fault injector must not be rebuilt mid-run).
func TestResolverContract(t *testing.T) {
	resolve, err := newResolver(spec.Spec{
		Machine: "Sandybridge", Compiler: "gnu-4.4.7", Threads: 1,
		Faults: 0.3, Retries: 2, Timeout: 30, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const luWire = "LU@Sandybridge/gnu-4.4.7/t1"
	p1, err := resolve(luWire)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := resolve(luWire)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("resolver rebuilt LU: re-dispatch would reset the fault injector")
	}
	for _, name := range []string{"HPL@Sandybridge", "RT@Sandybridge", "MM@Sandybridge/gnu-4.4.7/t1", "LU"} {
		if _, err := resolve(name); err != nil {
			t.Errorf("resolve(%s): %v", name, err)
		}
	}
	if _, err := resolve("NoSuchKernel@Sandybridge/gnu-4.4.7/t1"); err == nil {
		t.Error("resolve(NoSuchKernel@...): want error")
	}
	// A qualified name for a different target must be refused, not
	// silently computed on the wrong simulated machine.
	if _, err := resolve("LU@Power7/gnu-4.4.7/t1"); err == nil {
		t.Error("resolve(LU@Power7/...): want target-mismatch error")
	}
	if _, err = newResolver(spec.Spec{Machine: "NoSuch"}); err == nil {
		t.Error("newResolver with unknown machine: want error")
	}
}

// TestResolverRefusesForcedOpenMP: the experiments' OpenMP cells force
// the pragmas on, which changes every evaluation. Their wire names say
// so, and a worker (which has no such flag) must refuse them rather
// than return unforced numbers under the forced name.
func TestResolverRefusesForcedOpenMP(t *testing.T) {
	resolve, err := newResolver(spec.Spec{Machine: "XeonPhi", Compiler: "intel-15.0.1", Threads: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resolve("MM@XeonPhi/intel-15.0.1/t60"); err != nil {
		t.Fatalf("unforced name: %v", err)
	}
	_, err = resolve("MM@XeonPhi/intel-15.0.1/t60+omp")
	if err == nil || !strings.Contains(err.Error(), "target mismatch") {
		t.Fatalf("forced-OpenMP name: got %v, want a target-mismatch error", err)
	}
}

// TestResolverRefusesOffSizeKernel: an off-size kernel (ext-inputsize's
// MM at N=1000) carries its size in its name, and no worker can build
// it, so a task for it is refused, not evaluated at the paper size.
func TestResolverRefusesOffSizeKernel(t *testing.T) {
	resolve, err := newResolver(spec.Spec{Machine: "Sandybridge"})
	if err != nil {
		t.Fatal(err)
	}
	s := spec.Spec{Machine: "Sandybridge"}
	s.Normalize()
	off, err := s.BaseFor(kernels.MM(1000))
	if err != nil {
		t.Fatal(err)
	}
	if off.Name() == "MM@Sandybridge/gnu-4.4.7/t1" {
		t.Fatalf("off-size MM carries the paper-size name %q", off.Name())
	}
	if _, err := resolve(off.Name()); err == nil {
		t.Fatalf("resolve(%s): want error", off.Name())
	}
	if _, err := resolve("MM@Sandybridge/gnu-4.4.7/t1"); err != nil {
		t.Fatalf("paper-size MM: %v", err)
	}
}

// TestResolverChecksAnnotatedCompiler: the annotated kernel gets the
// same compiler-availability check as the built-in ones, at start-up.
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
	resolve, err := newResolver(spec.Spec{Annotation: path, Machine: "Westmere"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tiny@Westmere/gnu-4.4.7/t1", "LU@Westmere/gnu-4.4.7/t1"} {
		if _, err := resolve(name); err != nil {
			t.Errorf("resolve(%s): %v", name, err)
		}
	}
	_, err = newResolver(spec.Spec{Annotation: path, Machine: "Power7", Compiler: "intel-15.0.1"})
	if err == nil || !strings.Contains(err.Error(), "not available on Power7") {
		t.Fatalf("annotated kernel with icc on Power7: got %v, want a compiler error", err)
	}
}
