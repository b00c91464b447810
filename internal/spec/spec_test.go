package spec

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/search"
)

// extra is the journal meta's Extra map of a spec, spelled out so a pinned row
// reads as the map it must equal.
func extra(problem, annotation, machine, compiler, threads, algo, faults, retries, timeout string) map[string]string {
	return map[string]string{
		"problem": problem, "annotation": annotation,
		"machine": machine, "compiler": compiler, "threads": threads,
		"algo": algo, "faults": faults, "retries": retries, "timeout": timeout,
	}
}

// TestFormatPins pins every persisted string a spec derives — the
// problem name (journal meta, wire names, trace ids), the evaluation-
// cache scope, and the whole journal meta — to literals produced by
// the resolvers this package replaced. Random search is journaled as
// "RS", the name its journals have always carried. A change here
// invalidates existing journals and cache artifacts.
func TestFormatPins(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		base  string
		scope string
		meta  journal.Meta
	}{
		{
			name:  "bare kernel",
			spec:  Spec{Problem: "LU", Machine: "Sandybridge", Retries: 2, Seed: 42, Budget: 100},
			base:  "LU@Sandybridge/gnu-4.4.7/t1",
			scope: "LU@Sandybridge/gnu-4.4.7/t1",
			meta: journal.Meta{Problem: "LU@Sandybridge/gnu-4.4.7/t1", Algorithm: "RS", Seed: 42, NMax: 100,
				Extra: extra("LU", "", "Sandybridge", "gnu-4.4.7", "1", "rs", "0", "2", "0")},
		},
		{
			name:  "mini-app",
			spec:  Spec{Problem: "HPL", Machine: "Power7", Algorithm: "ensemble", Retries: 2, Seed: 7, Budget: 50},
			base:  "HPL@Power7",
			scope: "HPL@Power7",
			meta: journal.Meta{Problem: "HPL@Power7", Algorithm: "ensemble", Seed: 7, NMax: 50,
				Extra: extra("HPL", "", "Power7", "gnu-4.4.7", "1", "ensemble", "0", "2", "0")},
		},
		{
			name:  "faulted",
			spec:  Spec{Problem: "ATAX", Machine: "Sandybridge", Faults: 0.3, Retries: 2, Timeout: 50, Seed: 11, Budget: 30},
			base:  "ATAX@Sandybridge/gnu-4.4.7/t1",
			scope: "ATAX@Sandybridge/gnu-4.4.7/t1|faults=0.3|retries=2|timeout=50|seed=11",
			meta: journal.Meta{Problem: "ATAX@Sandybridge/gnu-4.4.7/t1", Algorithm: "RS", Seed: 11, NMax: 30,
				Extra: extra("ATAX", "", "Sandybridge", "gnu-4.4.7", "1", "rs", "0.3", "2", "50")},
		},
		{
			name:  "timeout only",
			spec:  Spec{Problem: "MM", Machine: "Westmere", Algorithm: "sa", Retries: 3, Timeout: 30, Seed: 5, Budget: 40},
			base:  "MM@Westmere/gnu-4.4.7/t1",
			scope: "MM@Westmere/gnu-4.4.7/t1|faults=0|retries=3|timeout=30",
			meta: journal.Meta{Problem: "MM@Westmere/gnu-4.4.7/t1", Algorithm: "sa", Seed: 5, NMax: 40,
				Extra: extra("MM", "", "Westmere", "gnu-4.4.7", "1", "sa", "0", "3", "30")},
		},
		{
			name: "threads",
			spec: Spec{Problem: "COR", Machine: "XeonPhi", Compiler: "intel-15.0.1", Threads: 60,
				Algorithm: "ga", Retries: 2, Seed: 9, Budget: 20},
			base:  "COR@XeonPhi/intel-15.0.1/t60",
			scope: "COR@XeonPhi/intel-15.0.1/t60",
			meta: journal.Meta{Problem: "COR@XeonPhi/intel-15.0.1/t60", Algorithm: "ga", Seed: 9, NMax: 20,
				Extra: extra("COR", "", "XeonPhi", "intel-15.0.1", "60", "ga", "0", "2", "0")},
		},
		{
			// Forced OpenMP evaluates differently, so its name differs from
			// the row above; the meta pins it through the name alone.
			name: "threads with forced OpenMP",
			spec: Spec{Problem: "COR", Machine: "XeonPhi", Compiler: "intel-15.0.1", Threads: 60, ForceOMP: true,
				Algorithm: "ga", Retries: 2, Seed: 9, Budget: 20},
			base:  "COR@XeonPhi/intel-15.0.1/t60+omp",
			scope: "COR@XeonPhi/intel-15.0.1/t60+omp",
			meta: journal.Meta{Problem: "COR@XeonPhi/intel-15.0.1/t60+omp", Algorithm: "ga", Seed: 9, NMax: 20,
				Extra: extra("COR", "", "XeonPhi", "intel-15.0.1", "60", "ga", "0", "2", "0")},
		},
		{
			// The annotation overrides Problem, which the meta still
			// records verbatim.
			name: "annotated",
			spec: Spec{Problem: "LU", Annotation: "testdata/tiny.orio", Machine: "Westmere",
				Algorithm: "ps", Faults: 0.1, Retries: 1, Seed: 3, Budget: 10},
			base:  "tiny@Westmere/gnu-4.4.7/t1",
			scope: "tiny@Westmere/gnu-4.4.7/t1|faults=0.1|retries=1|timeout=0|seed=3",
			meta: journal.Meta{Problem: "tiny@Westmere/gnu-4.4.7/t1", Algorithm: "ps", Seed: 3, NMax: 10,
				Extra: extra("LU", "testdata/tiny.orio", "Westmere", "gnu-4.4.7", "1", "ps", "0.1", "1", "0")},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec
			base, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if got := base.Name(); got != tc.base {
				t.Errorf("Resolve().Name() = %q, want %q", got, tc.base)
			}
			scope, err := s.Scope()
			if err != nil {
				t.Fatal(err)
			}
			if scope != tc.scope {
				t.Errorf("Scope() = %q, want %q", scope, tc.scope)
			}
			// The stack above the base keeps its name: wire names, trace
			// ids, and the journal meta all read it through the wrappers.
			p, _ := s.Build(base)
			if p.Name() != tc.base {
				t.Errorf("Build().Name() = %q, want %q", p.Name(), tc.base)
			}
			if got := s.journalMeta(p.Name()); !reflect.DeepEqual(got, tc.meta) {
				t.Errorf("journalMeta() = %+v, want %+v", got, tc.meta)
			}
		})
	}
}

// TestBaseResolvesEveryProblem builds each problem name on the machines
// the CLIs default to, and the annotated kernel with its parsed space.
func TestBaseResolvesEveryProblem(t *testing.T) {
	for _, name := range []string{"MM", "ATAX", "COR", "LU", "HPL", "RT"} {
		for _, m := range []string{"Sandybridge", "Power7", "X-Gene"} {
			s := Spec{Problem: name, Machine: m}
			s.Normalize()
			p, err := s.Base()
			if err != nil {
				t.Fatalf("%s on %s: %v", name, m, err)
			}
			if p.Space().NumParams() == 0 {
				t.Fatalf("%s on %s: empty space", name, m)
			}
		}
	}
	s := Spec{Annotation: "testdata/tiny.orio", Machine: "Westmere"}
	s.Normalize()
	p, err := s.Base()
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Space().NumParams(); n != 3 {
		t.Fatalf("annotated problem has %d params, want 3", n)
	}
	if _, ok := p.(*kernels.Problem); !ok {
		t.Fatalf("annotated problem is %T, want *kernels.Problem", p)
	}
}

// TestValidateRefuses pins every input Resolve's shared validation
// refuses, with the message each refusal carries.
func TestValidateRefuses(t *testing.T) {
	ok := Spec{Problem: "LU", Machine: "Sandybridge", Retries: 2, Budget: 10}
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"unknown problem", func(s *Spec) { s.Problem = "NOPE" },
			`unknown problem "NOPE" (known: MM, ATAX, COR, LU, HPL, RT)`},
		{"unknown machine", func(s *Spec) { s.Machine = "C64" }, "C64"},
		{"unknown compiler", func(s *Spec) { s.Compiler = "msvc" }, "msvc"},
		{"unknown compiler on a mini-app", func(s *Spec) { s.Problem, s.Compiler = "HPL", "msvc" }, "msvc"},
		{"compiler unavailable on the machine", func(s *Spec) { s.Machine, s.Compiler = "Power7", "intel-15.0.1" },
			"compiler intel-15.0.1 not available on Power7"},
		{"annotated kernel, compiler unavailable", func(s *Spec) {
			s.Annotation, s.Machine, s.Compiler = "testdata/tiny.orio", "Power7", "intel-15.0.1"
		}, "compiler intel-15.0.1 not available on Power7"},
		{"missing annotation file", func(s *Spec) { s.Annotation = "testdata/missing.orio" }, "missing.orio"},
		{"unknown algorithm", func(s *Spec) { s.Algorithm = "nope" },
			`unknown algorithm "nope" (known: rs, sa, ga, ps, ensemble)`},
		{"negative budget", func(s *Spec) { s.Budget = -1 }, "budget must be >= 0"},
		{"negative threads", func(s *Spec) { s.Threads = -1 }, "threads must be >= 1"},
		{"fault rate of one", func(s *Spec) { s.Faults = 1 }, "faults must be in [0,1)"},
		{"negative fault rate", func(s *Spec) { s.Faults = -0.1 }, "faults must be in [0,1)"},
		{"negative retries", func(s *Spec) { s.Retries = -1 }, "retries must be >= 0"},
		{"negative timeout", func(s *Spec) { s.Timeout = -1 }, "timeout must be >= 0"},
		{"target-only spec, unknown machine", func(s *Spec) { s.Problem, s.Machine = "", "C64" }, "C64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ok
			tc.edit(&s)
			p, err := s.Resolve()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resolve() = %v, want an error containing %q", err, tc.want)
			}
			if p != nil {
				t.Fatalf("Resolve() refused the spec but returned the problem %s", p.Name())
			}
		})
	}
	// A spec naming no problem describes a worker's target: valid on
	// its own, even where no kernel could be built on it.
	target := Spec{Machine: "Power7", Compiler: "intel-15.0.1"}
	if p, err := target.Resolve(); err != nil || p != nil {
		t.Fatalf("target-only spec: Resolve() = %v, %v; want no problem and no error", p, err)
	}
}

// TestResolveNormalizesAndBuildsOnce: Resolve fills the defaults into the
// caller's Spec, so later Scope, Driver and journal-meta calls see them,
// and its problem is the one Base builds.
func TestResolveNormalizesAndBuildsOnce(t *testing.T) {
	s := Spec{Problem: "LU", Machine: "Westmere"}
	p, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Compiler != "gnu-4.4.7" || s.Threads != 1 || s.Algorithm != "rs" {
		t.Fatalf("Resolve left the spec unnormalized: %+v", s)
	}
	base, err := s.Base()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != base.Name() || !reflect.DeepEqual(p, base) {
		t.Fatalf("Resolve built %s, Base builds %s", p.Name(), base.Name())
	}
}

// TestBuildLayers: the resilient layer appears exactly when faults or a
// timeout ask for it, and the injector exactly when faults do.
func TestBuildLayers(t *testing.T) {
	cases := []struct {
		faults, timeout float64
		resilient, inj  bool
	}{
		{0, 0, false, false},
		{0, 30, true, false},
		{0.3, 0, true, true},
		{0.3, 30, true, true},
	}
	for _, tc := range cases {
		s := Spec{Problem: "ATAX", Machine: "Sandybridge", Faults: tc.faults, Timeout: tc.timeout, Retries: 2, Seed: 1}
		base, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p, inj := s.Build(base)
		if _, ok := p.(*search.Resilient); ok != tc.resilient {
			t.Errorf("faults=%v timeout=%v: resilient layer %v, want %v", tc.faults, tc.timeout, ok, tc.resilient)
		}
		if (inj != nil) != tc.inj {
			t.Errorf("faults=%v timeout=%v: injector %v, want %v", tc.faults, tc.timeout, inj != nil, tc.inj)
		}
	}
}

// TestDriverMatchesDirectSearch: the rs driver is plain random search
// with the spec's budget and seed, the ensemble reports its pulls, and
// each algorithm spends exactly its budget on a fault-free problem.
func TestDriverMatchesDirectSearch(t *testing.T) {
	for _, algo := range algorithms {
		s := Spec{Problem: "ATAX", Machine: "Sandybridge", Algorithm: algo, Budget: 12, Seed: 5}
		p, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		var pulls map[string]int
		drive, err := s.Driver(&pulls)
		if err != nil {
			t.Fatal(err)
		}
		res := drive(context.Background(), p)
		if len(res.Records) != s.Budget {
			t.Errorf("%s: %d records, want %d", algo, len(res.Records), s.Budget)
		}
		if (pulls != nil) != (algo == "ensemble") {
			t.Errorf("%s: pulls = %v", algo, pulls)
		}
		again := drive(context.Background(), p)
		if !reflect.DeepEqual(res.Records, again.Records) {
			t.Errorf("%s: two runs of one driver differ", algo)
		}
	}
}

// TestThrottledChangesNothing: the pause wrapper returns the wrapped
// problem's outcome untouched, and a cancelled context cuts the pause
// short instead of waiting it out.
func TestThrottledChangesNothing(t *testing.T) {
	s := Spec{Problem: "MM", Machine: "Sandybridge"}
	s.Normalize()
	p, err := s.Base()
	if err != nil {
		t.Fatal(err)
	}
	c := p.Space().Default()
	want := search.EvaluateFull(context.Background(), p, c)
	got := search.EvaluateFull(context.Background(), Throttled{Problem: p, Wait: time.Millisecond}, c)
	if got != want {
		t.Fatalf("throttled outcome %+v, want %+v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want = search.EvaluateFull(ctx, p, c)
	if got := search.EvaluateFull(ctx, Throttled{Problem: p, Wait: time.Hour}, c); got.Status != want.Status {
		t.Fatalf("cancelled throttled outcome %+v, want %+v", got, want)
	}
}
