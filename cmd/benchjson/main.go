// Command benchjson converts `go test -bench` output into a structured
// JSON report. It reads benchmark output on stdin and writes one JSON
// document to the file named by -o (default BENCH.json):
//
//	go test -run '^$' -bench 'BenchmarkBroker' -benchtime 2x ./... |
//	    go run ./cmd/benchjson -o BENCH_PR7.json
//
// Each benchmark line becomes an entry with its package (from the last
// "pkg:" header before it), name, iteration count, ns/op, and any extra
// metrics the benchmark reported via b.ReportMetric (e.g. pearson,
// speedup). Lines that are not benchmark results or headers (pass/fail
// markers) are passed through to stderr so a piped run still shows its
// progress.
//
// The JSON is stable: entries appear in input order and keys are
// emitted sorted, so two runs of the same benchmarks diff cleanly.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	// Package is the import path of the benchmark's package.
	Package string `json:"package,omitempty"`
	// Name is the full benchmark name including sub-benchmarks,
	// with the -N GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op figure.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics carries every additional unit the benchmark reported
	// (bytes/op, allocs/op, and custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	// Context lines captured from the benchmark header (goos, goarch,
	// cpu), keyed by field name.
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks holds the results in input order.
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output JSON file")
	flag.Parse()
	rep, err := parse(os.Stdin, os.Stderr)
	var buf []byte
	if err == nil {
		buf, err = json.MarshalIndent(rep, "", "  ")
	}
	if err == nil {
		err = os.WriteFile(*out, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parse reads `go test -bench` output from r, passing every line that
// is neither a result nor a header through to w. Each entry gets the
// package of the last "pkg:" header before it.
func parse(r io.Reader, w io.Writer) (Report, error) {
	rep := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBench(line); ok {
				e.Package = rep.Context["pkg"]
				rep.Benchmarks = append(rep.Benchmarks, e)
				continue
			}
		case hasContextPrefix(line):
			k, v, _ := strings.Cut(line, ":")
			rep.Context[k] = strings.TrimSpace(v)
			continue
		}
		fmt.Fprintln(w, line)
	}
	delete(rep.Context, "pkg") // each entry carries its own
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	if len(rep.Benchmarks) == 0 {
		return Report{}, errors.New("no benchmark lines on stdin")
	}
	return rep, nil
}

func hasContextPrefix(line string) bool {
	for _, p := range []string{"goos:", "goarch:", "pkg:", "cpu:"} {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}

// parseBench parses one result line of the form
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   2 allocs/op   0.93 pearson
//
// into an Entry. Fields after the iteration count come in value/unit
// pairs.
func parseBench(line string) (Entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Entry{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -N GOMAXPROCS suffix, keeping sub-benchmark slashes.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Entry{}, false
		}
		if f[i+1] == "ns/op" {
			e.NsPerOp = v
		} else {
			e.Metrics[f[i+1]] = v
		}
	}
	if len(e.Metrics) == 0 {
		e.Metrics = nil
	}
	return e, true
}
