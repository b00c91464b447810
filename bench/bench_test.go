package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload runs every workload at smoke scale, untraced
// and traced, and checks that it passes every correctness check and
// prints exactly the metrics and units BENCHMARK.json declares. Every
// declared workload must exist; the service workloads run here too,
// though BENCHMARK.json does not declare them.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	daemon := filepath.Join(dir, "autotuned")
	build := exec.Command("go", "build", "-o", daemon, "repro/cmd/autotuned")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building autotuned: %v\n%s", err, out)
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := func(traced bool) map[string]string {
		m := map[string]string{}
		if traced {
			for _, d := range spec.PerLayer {
				m[d.Name] = d.Unit
			}
		} else {
			for _, d := range spec.EndToEnd {
				m[d.Name] = d.Unit
			}
		}
		return m
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json declares workload %q; the program has %v", w.Name, workloadNames())
		}
	}

	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), []string{
				"-workload", w, "-seed", "2016", "-seconds", "0.4", "-trace", trace, "-scale", "smoke",
				"-daemon", daemon, "-work", dir, "-golden", "golden.json",
			}, &stdout, &stderr)
			if code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s", w, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace=%s: last line is not the result: %v", w, trace, err)
				continue
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			want := declared(trace == "1")
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%s: printed %d metrics, declared %d", w, trace, len(got), len(want))
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace=%s: metric %s printed with unit %q, declared %q", w, trace, name, got[name], unit)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-transfer.jsonl")); err != nil {
		t.Errorf("traced transfer run wrote no trace: %v", err)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the calibration in README.md uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, 1.5, 12},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestVerdict covers each outcome of the compare rule.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		lower  bool
		bound  float64
		want   string
	}{
		{"faster", scaled(0.8), true, 0.1, "improved"},
		{"same", base, true, 0.1, "unchanged"},
		{"slower beyond bound", scaled(1.2), true, 0.1, "worse"},
		{"slower within bound", scaled(1.05), true, 0.1, "unchanged"},
		{"higher is better", scaled(1.2), false, 0.1, "improved"},
		{"too few pairs", scaled(0.5)[:5], true, 0.1, "unresolved"},
	} {
		parent := base[:len(tc.change)]
		if got, _ := verdict(parent, tc.change, tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got, _ := verdict(noisy, scaled(1.0), true, 0.1); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}
