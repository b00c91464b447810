package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseLabelsEachPackage: in `go test -bench ./...` output every
// package prints its own header, and each entry carries the package of
// the header before it, not the last one read.
func TestParseLabelsEachPackage(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkEvaluate/LU-2   	    5000	     21034 ns/op	    4120 B/op	      25 allocs/op
BenchmarkSurrogateFit/RT-2	      10	  11100000 ns/op	         0.51 compile-ms/op
PASS
ok  	repro	3.210s
goos: linux
goarch: amd64
pkg: repro/internal/analysis
cpu: AMD EPYC 7B13
BenchmarkFigure1-2   	       2	 512000000 ns/op	         0.99 pearson
PASS
ok  	repro/internal/analysis	2.004s
`
	var passed strings.Builder
	rep, err := parse(strings.NewReader(in), &passed)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Package: "repro", Name: "BenchmarkEvaluate/LU", Iterations: 5000, NsPerOp: 21034,
			Metrics: map[string]float64{"B/op": 4120, "allocs/op": 25}},
		{Package: "repro", Name: "BenchmarkSurrogateFit/RT", Iterations: 10, NsPerOp: 11100000,
			Metrics: map[string]float64{"compile-ms/op": 0.51}},
		{Package: "repro/internal/analysis", Name: "BenchmarkFigure1", Iterations: 2, NsPerOp: 512000000,
			Metrics: map[string]float64{"pearson": 0.99}},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Fatalf("entries:\n got %+v\nwant %+v", rep.Benchmarks, want)
	}
	if ctx := map[string]string{"goos": "linux", "goarch": "amd64", "cpu": "AMD EPYC 7B13"}; !reflect.DeepEqual(rep.Context, ctx) {
		t.Fatalf("context %v, want %v", rep.Context, ctx)
	}
	if got := passed.String(); got != "PASS\nok  \trepro\t3.210s\nPASS\nok  \trepro/internal/analysis\t2.004s\n" {
		t.Fatalf("passed through %q", got)
	}
	if _, err := parse(strings.NewReader("PASS\n"), &passed); err == nil {
		t.Fatal("input without benchmark lines parsed")
	}
}
