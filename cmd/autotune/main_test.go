package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/spec"
)

// TestMain lets the test binary stand in for the autotune command: when
// re-exec'd with AUTOTUNE_E2E_MAIN=1 it runs main() for the end-to-end
// signal tests below.
func TestMain(m *testing.M) {
	if os.Getenv("AUTOTUNE_E2E_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestEmitBestRequiresKernelProblem(t *testing.T) {
	hpl, err := spec.Spec{Problem: "HPL", Machine: "Sandybridge"}.Base()
	if err != nil {
		t.Fatal(err)
	}
	if err := emitBest(hpl, hpl.Space().Default()); err == nil {
		t.Fatal("emit on a mini-app accepted")
	}
	lu, err := spec.Spec{Problem: "LU", Machine: "Sandybridge", Compiler: "gnu-4.4.7", Threads: 1}.Base()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lu.(*kernels.Problem); !ok {
		t.Fatal("kernel problem type assertion broken")
	}
}

// autotuneCmd re-execs the test binary as the autotune command.
func autotuneCmd(args ...string) (*exec.Cmd, *bytes.Buffer) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AUTOTUNE_E2E_MAIN=1")
	out := new(bytes.Buffer)
	cmd.Stdout = out
	cmd.Stderr = out
	return cmd, out
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("command failed without an exit code: %v", err)
	}
	return ee.ExitCode()
}

// grepLine returns the first output line with the given prefix.
func grepLine(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

func TestSIGINTLeavesResumableJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	jdir := filepath.Join(t.TempDir(), "journal")
	runFlags := []string{
		"-problem", "MM", "-machine", "Sandybridge",
		"-algo", "rs", "-nmax", "60", "-seed", "7",
		"-faults", "0.3", "-retries", "2", "-timeout", "30",
	}

	// Interrupt a run slowed by -throttle mid-flight.
	child, childOut := autotuneCmd(append(runFlags, "-journal", jdir, "-throttle", "15ms")...)
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond)
	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(t, child.Wait()); code != exitInterrupted {
		t.Fatalf("interrupted run exited %d, want %d; output:\n%s", code, exitInterrupted, childOut)
	}

	// The journaled partial result must load cleanly.
	s, err := journal.Open(jdir)
	if err != nil {
		t.Fatalf("journal unreadable after SIGINT: %v", err)
	}
	n := s.Len()
	if _, err := s.Records(); err != nil {
		t.Fatalf("journaled partial records unreadable: %v", err)
	}
	if s.Done() {
		t.Fatal("interrupted journal claims completion")
	}
	s.Close()
	if n == 0 {
		t.Fatalf("no evaluations journaled before SIGINT; output:\n%s", childOut)
	}
	if n >= 60 {
		t.Fatalf("run completed (%d evals) before the signal landed", n)
	}
	t.Logf("SIGINT landed after %d journaled evaluations", n)

	// Resume (settings adopted from the journal) and an uninterrupted
	// reference run must agree on the final best.
	resume, resumeOut := autotuneCmd("-resume", jdir)
	if code := exitCode(t, resume.Run()); code != exitOK {
		t.Fatalf("resume exited %d; output:\n%s", code, resumeOut)
	}
	ref, refOut := autotuneCmd(runFlags...)
	if code := exitCode(t, ref.Run()); code != exitOK {
		t.Fatalf("reference run exited %d; output:\n%s", code, refOut)
	}
	for _, prefix := range []string{"best config:", "best run:", "search time:"} {
		got, want := grepLine(resumeOut.String(), prefix), grepLine(refOut.String(), prefix)
		if got == "" || got != want {
			t.Fatalf("resumed %q line differs:\n  resumed:   %s\n  reference: %s\nfull resume output:\n%s",
				prefix, got, want, resumeOut)
		}
	}
	if !strings.Contains(resumeOut.String(), "resumed:") {
		t.Fatalf("resume output does not report resumption:\n%s", resumeOut)
	}
}

func TestResumeRefusesMismatchedSettings(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	jdir := filepath.Join(t.TempDir(), "journal")
	first, firstOut := autotuneCmd("-problem", "ATAX", "-algo", "rs", "-nmax", "10", "-seed", "3", "-journal", jdir)
	if code := exitCode(t, first.Run()); code != exitOK {
		t.Fatalf("journaled run exited %d; output:\n%s", code, firstOut)
	}
	clash, clashOut := autotuneCmd("-resume", jdir, "-problem", "MM")
	if code := exitCode(t, clash.Run()); code != exitUsage {
		t.Fatalf("mismatched resume exited %d, want %d; output:\n%s", code, exitUsage, clashOut)
	}
	missing, _ := autotuneCmd("-resume", filepath.Join(t.TempDir(), "nope"))
	if code := exitCode(t, missing.Run()); code != exitUsage {
		t.Fatalf("resume of missing journal exited %d, want %d", code, exitUsage)
	}
}

// TestWorkersComposeWithJournaledResume: -workers only caps goroutine
// scheduling, so a journaled run under one worker count and a resume (or
// plain rerun) under another must agree on every result line.
func TestWorkersComposeWithJournaledResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	jdir := filepath.Join(t.TempDir(), "journal")
	runFlags := []string{"-problem", "ATAX", "-algo", "sa", "-nmax", "30", "-seed", "11"}

	wide, wideOut := autotuneCmd(append(runFlags, "-journal", jdir, "-workers", "8")...)
	if code := exitCode(t, wide.Run()); code != exitOK {
		t.Fatalf("workers=8 journaled run exited %d; output:\n%s", code, wideOut)
	}
	narrow, narrowOut := autotuneCmd(append(runFlags, "-workers", "1")...)
	if code := exitCode(t, narrow.Run()); code != exitOK {
		t.Fatalf("workers=1 run exited %d; output:\n%s", code, narrowOut)
	}
	resume, resumeOut := autotuneCmd("-resume", jdir, "-workers", "2")
	if code := exitCode(t, resume.Run()); code != exitOK {
		t.Fatalf("resume under workers=2 exited %d; output:\n%s", code, resumeOut)
	}
	for _, prefix := range []string{"best config:", "best run:", "search time:"} {
		want := grepLine(narrowOut.String(), prefix)
		if want == "" {
			t.Fatalf("workers=1 output missing %q line:\n%s", prefix, narrowOut)
		}
		if got := grepLine(wideOut.String(), prefix); got != want {
			t.Fatalf("workers=8 %q line differs:\n  workers=8: %s\n  workers=1: %s", prefix, got, want)
		}
		if got := grepLine(resumeOut.String(), prefix); got != want {
			t.Fatalf("resumed %q line differs:\n  resumed:   %s\n  workers=1: %s", prefix, got, want)
		}
	}
}

// TestBrokerFlagValidation pins the broker flag contract: negative
// hedge delays, a hedge delay without remote workers, and the retired
// in-process broker flags (-broker, -broker-workers, -broker-remote)
// are usage errors (exit 2) with a clear message, never silently
// coerced.
func TestBrokerFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"broker-workers zero", []string{"-broker-workers", "0"}, "flag provided but not defined: -broker-workers"},
		{"broker-workers negative", []string{"-broker-workers", "-3"}, "flag provided but not defined: -broker-workers"},
		{"hedge-after negative", []string{"-hedge-after", "-1ms"}, "-hedge-after must be >= 0"},
		{"hedge-after alone", []string{"-hedge-after", "5ms"}, "-hedge-after requires -workers-addr"},
		{"broker-remote without addr", []string{"-broker-remote"}, "flag provided but not defined: -broker-remote"},
		{"remote and shards", []string{"-workers-addr", "unix:/tmp/x.sock", "-broker"}, "flag provided but not defined: -broker"},
		{"remote and broker-workers", []string{"-broker-remote", "-workers-addr", "unix:/tmp/x.sock", "-broker-workers", "2"}, "flag provided but not defined: -broker-remote"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-problem", "ATAX", "-nmax", "3"}, tc.args...)
			cmd, out := autotuneCmd(args...)
			if code := exitCode(t, cmd.Run()); code != exitUsage {
				t.Fatalf("exit %d, want %d; output:\n%s", code, exitUsage, out)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestRemoteWorkersServeAutotune is the CLI-level remote e2e: autotune
// listens on a unix socket, a brokerd-equivalent worker (the remote
// package driven directly, same wire path) serves the evaluations, and
// the output matches the inline run line for line.
func TestRemoteWorkersServeAutotune(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	runFlags := []string{"-problem", "ATAX", "-algo", "rs", "-nmax", "20", "-seed", "19"}
	inline, inlineOut := autotuneCmd(runFlags...)
	if code := exitCode(t, inline.Run()); code != exitOK {
		t.Fatalf("inline run exited %d; output:\n%s", code, inlineOut)
	}

	addr := "unix:" + filepath.Join(t.TempDir(), "w.sock")
	remoteCmd, remoteOut := autotuneCmd(append(runFlags, "-throttle", "5ms", "-workers-addr", addr)...)
	if err := remoteCmd.Start(); err != nil {
		t.Fatal(err)
	}
	resolve, err := spec.Spec{}.Resolver()
	if err != nil {
		t.Fatal(err)
	}
	w := &remote.Worker{Resolve: resolve}
	wctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(wctx, func(ctx context.Context) (net.Conn, error) {
			conn, err := remote.Dial(ctx, addr)
			if err != nil {
				// The driver may not be listening yet; Run's backoff retries.
				return nil, err
			}
			return conn, nil
		})
	}()
	if code := exitCode(t, remoteCmd.Wait()); code != exitOK {
		t.Fatalf("remote run exited %d; output:\n%s", code, remoteOut)
	}
	for _, prefix := range []string{"best config:", "best run:", "search time:"} {
		want := grepLine(inlineOut.String(), prefix)
		if want == "" {
			t.Fatalf("inline output missing %q line:\n%s", prefix, inlineOut)
		}
		if got := grepLine(remoteOut.String(), prefix); got != want {
			t.Fatalf("remote %q line differs:\n  remote: %s\n  inline: %s", prefix, got, want)
		}
	}
}

// TestSpecChecksExitUsage pins the inputs the shared spec validation
// refuses up front. Each once ran (or failed at run time with exit 1,
// or panicked mid-search for the annotated kernel); each is now a usage
// error, exit 2, before any evaluation.
func TestSpecChecksExitUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	annotation := filepath.Join(t.TempDir(), "tiny.orio")
	if err := os.WriteFile(annotation, []byte(`
kernel tiny input 32
size N = 32
array A[N] elem 8
nest n
loop i = 0 .. N
stmt A[i] = A[i] flops 1
param U_I on i unroll 1..4
param T_I on i tile pow2 0..2
param RT_I on i regtile pow2 0..1
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative threads", []string{"-threads", "-1"}, "threads must be >= 1"},
		{"negative retries", []string{"-retries", "-1"}, "retries must be >= 0"},
		{"negative timeout", []string{"-timeout", "-1"}, "timeout must be >= 0"},
		{"negative budget", []string{"-nmax", "-1"}, "budget must be >= 0"},
		{"unknown algorithm", []string{"-algo", "nope"}, `unknown algorithm "nope"`},
		{"mini-app with unknown compiler", []string{"-problem", "HPL", "-compiler", "msvc"}, "msvc"},
		{"annotated kernel with unavailable compiler",
			[]string{"-annotation", annotation, "-machine", "Power7", "-compiler", "intel-15.0.1"},
			"autotune: compiler intel-15.0.1 not available on Power7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-problem", "ATAX", "-nmax", "3"}, tc.args...)
			cmd, out := autotuneCmd(args...)
			if code := exitCode(t, cmd.Run()); code != exitUsage {
				t.Fatalf("exit %d, want %d; output:\n%s", code, exitUsage, out)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}
