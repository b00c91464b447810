package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"repro/internal/stats"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), so compare mode's spreads match the calibration in
// README.md.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q(1), q(3)
}

// verdict applies the gain rule and the bound to one workload × metric.
// lower says whether lower is better; pairs are (parent, change) in run
// order.
func verdict(parent, change []float64, lower bool, bound float64) (string, float64) {
	mp, mc := stats.Median(parent), stats.Median(change)
	if mp == 0 {
		return "unresolved", 0
	}
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	worseBy := (mc - mp) / mp
	if !lower {
		worseBy = -worseBy
	}
	q1, q3 := quartiles(parent)
	spread := (q3 - q1) / mp
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	gap := mc - mp
	if gap < 0 {
		gap = -gap
	}
	switch {
	case len(parent) < minPairs:
		return "unresolved", worseBy
	case worseBy > bound:
		return "worse", worseBy
	case better(mc, mp) && 10*wins >= 9*len(parent) && gap > q3-q1:
		return "improved", worseBy
	case spread > bound && !allBetter:
		return "unresolved", worseBy
	}
	return "unchanged", worseBy
}

// compareMain is `bench compare PARENT_DIR CHANGE_DIR`: it pairs the
// untraced -out files of each workload in file-name order and prints a
// verdict per workload × end-to-end metric, with the bounds
// BENCHMARK.json declares. Exit status 1 means a
// metric got worse by more than its bound or a change run failed a
// check.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration (metrics, directions, bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	parent, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}

	code := 0
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tworse by\tbound\tpairs\tverdict")
	compared := 0
	for _, w := range workloadNames() {
		p, c := parent[w], change[w]
		n := min(len(p), len(c))
		if n == 0 {
			continue
		}
		p, c = p[:n], c[:n]
		pf, cf := 0, 0
		for i := range p {
			pf += p[i].Result.Failed
			cf += c[i].Result.Failed
			if !c[i].Result.Correct {
				fmt.Fprintf(stderr, "bench compare: change run %d of %s failed its checks\n", i, w)
				code = 1
			}
		}
		for _, m := range spec.EndToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := range p {
				pv[i] = p[i].Result.Metrics[m.Name].Value
				cv[i] = c[i].Result.Metrics[m.Name].Value
			}
			v, worseBy := verdict(pv, cv, m.Better == "lower", m.Bound)
			if v == "improved" && cf > pf {
				// A gain does not count when more ops fail.
				v = "unresolved"
			}
			if v == "worse" {
				code = 1
			}
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.1f%%\t%.0f%%\t%d\t%s\n",
				w, m.Name, stats.Median(pv), pq1, pq3, stats.Median(cv), cq1, cq3, 100*worseBy, 100*m.Bound, n, v)
			compared++
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "bench compare: no workload has runs on both sides")
		return 2
	}
	return code
}

// readRuns loads the untraced -out files of dir, grouped by workload
// and ordered by file name.
func readRuns(dir string) (map[string][]outFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	runs := map[string][]outFile{}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var of outFile
		if err := json.Unmarshal(raw, &of); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if !of.Trace {
			runs[of.Workload] = append(runs[of.Workload], of)
		}
	}
	return runs, nil
}
