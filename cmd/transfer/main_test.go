package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/spec"
)

// TestMain lets the test binary stand in for the transfer command: when
// re-exec'd with TRANSFER_E2E_MAIN=1 it runs main() for the exit-code
// tests below.
func TestMain(m *testing.M) {
	if os.Getenv("TRANSFER_E2E_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// transfer runs the command with args and returns its combined output
// and exit code.
func transfer(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRANSFER_E2E_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestBuildProblem pins the spec checks transfer applies to both
// machines: unknown names fail, and so do the inputs the shared spec
// validation refuses (a negative thread count or budget, a compiler
// name that resolves to nothing even for a mini-app). Every such
// failure exits 2 before any evaluation.
func TestBuildProblem(t *testing.T) {
	out, code := transfer(t, "-nmax", "10", "-pool", "50", "-trees", "5")
	if code != 0 || !strings.Contains(out, "transfer LU: LU@Westmere/gnu-4.4.7/t1 -> LU@Sandybridge/gnu-4.4.7/t1") {
		t.Fatalf("transfer with defaults: exit %d, output:\n%s", code, out)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown machine", []string{"-target", "VAX"}},
		{"unknown problem", []string{"-problem", "FFT"}},
		{"negative threads", []string{"-threads", "-1"}},
		{"negative budget", []string{"-nmax", "-1"}},
		{"mini-app with unknown compiler", []string{"-problem", "HPL", "-compiler", "msvc"}},
		{"unavailable compiler", []string{"-source", "Power7", "-compiler", "intel-15.0.1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if out, code := transfer(t, tc.args...); code != 2 {
				t.Fatalf("transfer %v: exit %d, want 2; output:\n%s", tc.args, code, out)
			}
		})
	}
}

// TestSaveModelWritesRunSurrogate: -save-model writes the surrogate the
// transfer searched with, byte for byte the forest a separate fit from
// the same T_a and seed gives; a degraded run (too few source samples
// to fit) has no surrogate and exits 1 with the fit error.
func TestSaveModelWritesRunSurrogate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if out, code := transfer(t, "-nmax", "12", "-pool", "50", "-trees", "5", "-seed", "3", "-save-model", path); code != 0 {
		t.Fatalf("transfer -save-model: exit %d, output:\n%s", code, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src, err := (&spec.Spec{Problem: "LU", Machine: "Westmere"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, ta := core.Collect(context.Background(), src, 12, rng.NewNamed(3, "crn-stream"))
	sur, err := core.FitSurrogate(ta, src.Space(), src.Name(), forest.Params{Trees: 5}, rng.NewNamed(3, "forest"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sur.Forest.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("saved model differs from the surrogate fitted on the run's T_a and seed")
	}

	out, code := transfer(t, "-nmax", "3", "-pool", "50", "-save-model", path)
	if code != 1 || !strings.Contains(out, core.ErrTooFewValid.Error()) {
		t.Fatalf("degraded transfer -save-model: exit %d, want 1 with the fit error; output:\n%s", code, out)
	}
}

// TestWriteArtifacts: one run writes both artifacts. Reading the -save-ta
// file back with search.LoadCSV gives exactly the T_a core.Run collected
// with the same options, and the -save-model file loads as a forest.
func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ta.csv")
	modelPath := filepath.Join(dir, "model.json")
	if out, code := transfer(t, "-nmax", "12", "-pool", "50", "-trees", "5", "-seed", "3", "-save-ta", path, "-save-model", modelPath); code != 0 {
		t.Fatalf("transfer -save-ta -save-model: exit %d, output:\n%s", code, out)
	}
	src, err := (&spec.Spec{Problem: "LU", Machine: "Westmere"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := (&spec.Spec{Problem: "LU", Machine: "Sandybridge"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(context.Background(), src, tgt, core.Options{
		NMax: 12, PoolSize: 50, DeltaPct: 20, Forest: forest.Params{Trees: 5}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := search.LoadCSV(f, src.Space())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Ta) == 0 || !reflect.DeepEqual(got, want.Ta) {
		t.Fatalf("saved T_a differs from the run's:\n got %v\nwant %v", got, want.Ta)
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if _, err := forest.Load(mf); err != nil {
		t.Fatalf("saved model unreadable: %v", err)
	}
}

// TestSIGINTPrintsNoResult: an interrupted transfer drains and exits 3
// with "interrupted" on stderr. It prints no speedup table and writes
// neither artifact, so a partial outcome cannot pass for a result. The
// source collection of 50 000 RT evaluations is still running when the
// signal lands.
func TestSIGINTPrintsNoResult(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	dir := t.TempDir()
	taPath, modelPath := filepath.Join(dir, "ta.csv"), filepath.Join(dir, "model.json")
	cmd := exec.Command(os.Args[0], "-problem", "RT", "-nmax", "50000", "-pool", "100", "-trees", "1",
		"-save-ta", taPath, "-save-model", modelPath)
	cmd.Env = append(os.Environ(), "TRANSFER_E2E_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("interrupted transfer: %v, want exit 3; stdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr does not report the interruption:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Fatalf("interrupted transfer printed a result:\n%s", &stdout)
	}
	for _, p := range []string{taPath, modelPath} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("interrupted transfer wrote %s (stat: %v)", p, err)
		}
	}
}
