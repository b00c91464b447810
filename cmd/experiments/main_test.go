package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/spec"
)

func TestExportWritesArtifacts(t *testing.T) {
	rep, err := experiments.Run(context.Background(), "table3", experiments.Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := export(dir, rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table3.txt", "table3-values.txt", "table3-table0.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
	data, _ := os.ReadFile(filepath.Join(dir, "table3-table0.csv"))
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
	// Atomic writes must not leave temporary files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temporary file %s", e.Name())
		}
	}
}

func TestProgressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfgLine := "# cfg seed=1 quick=true nmax=0 pool=0 trees=0"
	ids := []string{"fig1", "fig2", "table3"}

	got, err := loadProgress(dir, cfgLine)
	if err != nil || len(got) != 0 {
		t.Fatalf("fresh dir: got %v, %v", got, err)
	}
	if err := writeProgress(dir, cfgLine, ids, map[string]bool{"fig2": true, "fig1": true}); err != nil {
		t.Fatal(err)
	}
	got, err = loadProgress(dir, cfgLine)
	if err != nil {
		t.Fatal(err)
	}
	if !got["fig1"] || !got["fig2"] || got["table3"] {
		t.Fatalf("progress round-trip: %v", got)
	}
	// A different configuration must be refused, not silently mixed.
	if _, err := loadProgress(dir, "# cfg seed=2 quick=true nmax=0 pool=0 trees=0"); err == nil {
		t.Fatal("mismatched configuration accepted")
	}
}

// TestMain lets the test binary stand in for the experiments command:
// when re-exec'd with EXPERIMENTS_E2E_MAIN=1 it runs the real main
// path, so the flag-validation tests exercise the production parsing.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_E2E_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// experimentsCmd re-execs the test binary as the experiments command.
func experimentsCmd(args ...string) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_E2E_MAIN=1")
	out := new(bytes.Buffer)
	cmd.Stdout = out
	cmd.Stderr = out
	return cmd, out
}

// TestBrokerFlagValidation pins the broker flag contract: negative
// hedge delays, a hedge delay without remote workers, and the retired
// in-process broker flags (-broker, -broker-workers, -broker-remote)
// exit 2 with a clear message instead of being silently coerced.
func TestBrokerFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"broker-workers zero", []string{"-broker-workers", "0"}, "flag provided but not defined: -broker-workers"},
		{"broker-workers negative", []string{"-broker-workers", "-2"}, "flag provided but not defined: -broker-workers"},
		{"hedge-after negative", []string{"-hedge-after", "-5ms"}, "-hedge-after must be >= 0"},
		{"hedge-after alone", []string{"-hedge-after", "5ms"}, "-hedge-after requires -workers-addr"},
		{"broker-remote without addr", []string{"-broker-remote"}, "flag provided but not defined: -broker-remote"},
		{"remote and shards", []string{"-workers-addr", "unix:/tmp/x.sock", "-broker"}, "flag provided but not defined: -broker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-exp", "table3", "-quick"}, tc.args...)
			cmd, out := experimentsCmd(args...)
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected exit error, got %v; output:\n%s", err, out)
			}
			if code := ee.ExitCode(); code != exitUsage {
				t.Fatalf("exit %d, want %d; output:\n%s", code, exitUsage, out)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestSweepKeepsWorkers: one worker pool serves the whole sweep, so a
// worker that connects once serves every experiment in it. Each
// experiment must lease work to that worker, and no experiment after
// the first may degrade to inline evaluation for want of one. The
// first may: its opening evaluations race the worker's first connect
// and run inline once the pool's short retry budget is spent, which
// is scheduling-dependent by contract (see stripBroker in
// internal/experiments).
func TestSweepKeepsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec sweep skipped in -short mode")
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "w.sock")
	cmd, stdout := experimentsCmd("-exp", "fig1,fig2", "-quick", "-workers-addr", addr, "-metrics")
	stderr := new(bytes.Buffer)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	resolve, err := spec.Spec{}.Resolver()
	if err != nil {
		t.Fatal(err)
	}
	var dialed atomic.Bool
	w := &remote.Worker{
		Resolve:     resolve,
		Backoff:     time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		MaxAttempts: 1 << 20, // the sweep listens only once it starts
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx, func(ctx context.Context) (net.Conn, error) {
			if dialed.Load() {
				return nil, errors.New("this worker connects only once")
			}
			conn, err := remote.Dial(ctx, addr)
			if err == nil {
				dialed.Store(true)
			}
			return conn, err
		})
	}()
	err = cmd.Wait()
	cancel()
	<-done
	if err != nil {
		t.Fatalf("sweep failed: %v\nstderr:\n%s", err, stderr)
	}

	// Each experiment's metrics block precedes its "[id completed in"
	// line.
	leases, degraded := map[string]string{}, map[string]string{}
	var lease, degrade string
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 2 && f[0] == obs.MetricRemoteLeases:
			lease = f[1]
		case len(f) == 2 && f[0] == obs.MetricDegraded:
			degrade = f[1]
		case len(f) > 2 && f[1] == "completed" && strings.HasPrefix(f[0], "["):
			id := strings.TrimPrefix(f[0], "[")
			leases[id], degraded[id] = lease, degrade
			lease, degrade = "", ""
		}
	}
	for i, id := range []string{"fig1", "fig2"} {
		if n, err := strconv.Atoi(leases[id]); err != nil || n == 0 {
			t.Errorf("%s leased %q evaluations to the worker, want > 0", id, leases[id])
		}
		if i > 0 && degraded[id] != "" {
			t.Errorf("%s degraded %s evaluations to inline", id, degraded[id])
		}
	}
	if t.Failed() {
		t.Logf("stdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
}
