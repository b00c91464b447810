package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the correlate command:
// when re-exec'd with CORRELATE_E2E_MAIN=1 it runs main() for the
// exit-code test below.
func TestMain(m *testing.M) {
	if os.Getenv("CORRELATE_E2E_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// correlate runs the command with args and returns its combined output
// and exit code.
func correlate(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CORRELATE_E2E_MAIN=1")
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

// TestBuild: every problem kind builds on a machine other than the
// defaults, and the command correlates it.
func TestBuild(t *testing.T) {
	for _, name := range []string{"LU", "HPL", "RT"} {
		out, code := correlate(t, "-problem", name, "-b", "Power7", "-n", "8")
		if code != 0 || !strings.Contains(out, name+": 8 configurations on Westmere and Power7") {
			t.Fatalf("correlate -problem %s -b Power7: exit %d, output:\n%s", name, code, out)
		}
	}
}

// TestUsageExitCode: an unknown problem or machine is a usage error.
func TestUsageExitCode(t *testing.T) {
	for _, args := range [][]string{{"-problem", "FFT"}, {"-b", "Cray-1"}} {
		if out, code := correlate(t, args...); code != 2 {
			t.Fatalf("correlate %v: exit %d, want 2; output:\n%s", args, code, out)
		}
	}
}
