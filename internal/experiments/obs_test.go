package experiments

import (
	"strings"
	"testing"
)

// Every experiment run aggregates telemetry into Report.Metrics; the
// snapshot must carry the evaluation counters while Text stays free of
// wall-clock-dependent metrics so golden comparisons remain stable.
func TestReportCarriesMetricsSnapshot(t *testing.T) {
	rep := run(t, "table4", Quick(31))
	if rep.Metrics == "" {
		t.Fatal("report has no metrics snapshot")
	}
	for _, want := range []string{"counters:", "evals.total"} {
		if !strings.Contains(rep.Metrics, want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, rep.Metrics)
		}
	}
	if strings.Contains(rep.Text, "counters:") {
		t.Fatal("metrics leaked into the deterministic report text")
	}
}

// TestTable4FitsOncePerSource: every target of a (workload, source) pair
// reuses one prelude, so table4 fits one surrogate per pair — 6
// workloads × 3 sources — rather than one per grid cell.
func TestTable4FitsOncePerSource(t *testing.T) {
	rep := run(t, "table4", Quick(31))
	for _, line := range strings.Split(rep.Metrics, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "model.fits" {
			if f[1] != "18" {
				t.Fatalf("table4 fitted %s surrogates, want 18", f[1])
			}
			return
		}
	}
	t.Fatalf("metrics snapshot has no model.fits counter:\n%s", rep.Metrics)
}
