package main

import (
	"errors"
	"os"
	"os/exec"
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

func TestBuild(t *testing.T) {
	for _, name := range []string{"LU", "HPL", "RT"} {
		p, err := build(name, "Power7")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Space().NumParams() == 0 {
			t.Fatalf("%s: empty space", name)
		}
	}
	if _, err := build("LU", "Cray-1"); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := build("FFT", "Power7"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestUsageExitCode: an unknown problem or machine is a usage error.
func TestUsageExitCode(t *testing.T) {
	for _, args := range [][]string{{"-problem", "FFT"}, {"-b", "Cray-1"}} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "CORRELATE_E2E_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("correlate %v: %v, want exit 2; output:\n%s", args, err, out)
		}
	}
}
