package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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

// TestBuildProblem pins the spec checks transfer applies to both
// machines: unknown names fail, and so do the inputs the shared spec
// validation refuses (a negative thread count or budget, a compiler
// name that resolves to nothing even for a mini-app). Every such
// failure exits 2 before any evaluation.
func TestBuildProblem(t *testing.T) {
	sp := spec.Spec{Problem: "LU", Compiler: "gnu-4.4.7", Threads: 1, Budget: 100}
	if _, err := buildProblem(sp, "Sandybridge"); err != nil {
		t.Fatal(err)
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
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "TRANSFER_E2E_MAIN=1")
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("transfer %v: %v, want exit 2; output:\n%s", tc.args, err, out)
			}
		})
	}
}

func TestWriteArtifacts(t *testing.T) {
	src, err := buildProblem(spec.Spec{Problem: "LU"}, "Westmere")
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
