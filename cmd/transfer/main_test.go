package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

func TestWriteArtifacts(t *testing.T) {
	src, err := (&spec.Spec{Problem: "LU", Machine: "Westmere"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	_, ta := core.Collect(context.Background(), src, 15, rng.New(1))
	dir := t.TempDir()

	taPath := filepath.Join(dir, "ta.csv")
	if err := writeTa(taPath, ta, src.Space()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(taPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := search.LoadCSV(f, src.Space())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(ta) {
		t.Fatalf("roundtrip rows %d vs %d", len(loaded), len(ta))
	}

	sur, err := core.FitSurrogate(ta, src.Space(), "test", forest.Params{Trees: 10}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.json")
	if err := writeModel(modelPath, sur); err != nil {
		t.Fatal(err)
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
