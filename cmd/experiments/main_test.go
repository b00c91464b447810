package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
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

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	if err := writeFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "new" {
		t.Fatalf("got %q, %v", data, err)
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
