package spec

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/search"
)

// TestNamedInvertsName: every problem a Spec builds — each name
// TestFormatPins pins, the forced-OpenMP and off-size variants, the
// mini-apps, and the annotated kernel — is named back into a Spec that
// builds it, with the target fields the original Spec held.
func TestNamedInvertsName(t *testing.T) {
	for _, want := range []Spec{
		{Problem: "LU", Machine: "Sandybridge"},
		{Problem: "HPL", Machine: "Power7"},
		{Problem: "RT", Machine: "X-Gene"},
		{Problem: "COR", Machine: "XeonPhi", Compiler: "intel-15.0.1", Threads: 60},
		{Problem: "MM", Machine: "XeonPhi", Compiler: "intel-15.0.1", Threads: 60, ForceOMP: true},
		{Problem: "MM_n1000", Machine: "Sandybridge"},
		{Problem: "tiny", Annotation: "testdata/tiny.orio", Machine: "Westmere"},
	} {
		want.Normalize()
		p, err := want.Base()
		if err != nil {
			t.Fatal(err)
		}
		settings := Spec{Annotation: want.Annotation, Faults: 0.2, Retries: 3, Timeout: 9, Seed: 4}
		got, named, err := settings.Named(p.Name())
		if err != nil {
			t.Errorf("Named(%q): %v", p.Name(), err)
			continue
		}
		if named.Name() != p.Name() {
			t.Errorf("Named(%q) built %q", p.Name(), named.Name())
		}
		want.Faults, want.Retries, want.Timeout, want.Seed = settings.Faults, settings.Retries, settings.Timeout, settings.Seed
		if got != want {
			t.Errorf("Named(%q) = %+v, want %+v", p.Name(), got, want)
		}
	}
}

// TestResolverServesEveryTarget: one resolver serves every target a
// sweep tunes — other machines and compilers, forced OpenMP, the
// mini-apps, off-size kernels — each as the bare problem the spec
// builds inline, and refuses every name that is not the name of the
// problem it would build.
func TestResolverServesEveryTarget(t *testing.T) {
	resolve, err := Resolver("")
	if err != nil {
		t.Fatal(err)
	}
	for _, inline := range []Spec{
		{Problem: "LU", Machine: "Power7"},
		{Problem: "MM", Machine: "XeonPhi", Compiler: "intel-15.0.1", Threads: 60, ForceOMP: true},
		{Problem: "HPL", Machine: "Power7"},
		{Problem: "MM_n1000", Machine: "Sandybridge"},
	} {
		want, err := inline.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		name := want.Name()
		got, err := resolve(name)
		if err != nil {
			t.Errorf("resolve(%q): %v", name, err)
			continue
		}
		if got.Name() != name {
			t.Errorf("resolve(%q) served %q", name, got.Name())
		}
		r := rng.New(3)
		for i := 0; i < 20; i++ {
			c := want.Space().Random(r)
			if g, w := search.EvaluateFull(context.Background(), got, c), search.EvaluateFull(context.Background(), want, c); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: served outcome %+v, inline %+v", name, g, w)
			}
		}
		// Workers resolve concurrently; every caller gets the one instance.
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if again, _ := resolve(name); again != got {
					t.Errorf("resolve(%q) rebuilt its problem and its compiled cost model", name)
				}
			}()
		}
		wg.Wait()
	}
	for _, name := range []string{
		"LU",                                // no target
		"MM_n2000@Sandybridge/gnu-4.4.7/t1", // the paper size has the bare name
		"LU@NoSuch/gnu-4.4.7/t1",            // unknown machine
		"LU@Sandybridge/gnu-4.4.7/t0",       // builds t1
		"LU@Power7/intel-15.0.1/t1",         // compiler the machine lacks
		"HPL@Power7/gnu-4.4.7/t1",           // mini-apps name no compiler
		"lu@Sandybridge/gnu-4.4.7/t1",       // builds LU
	} {
		if p, err := resolve(name); err == nil {
			t.Errorf("resolve(%q) served %q", name, p.Name())
		}
	}
}

// TestResolverChecksSettings: the annotation, the resolver's one
// setting, is checked when the resolver is built; the annotated kernel
// is served under its parsed name, next to the built-in problems, on
// any target that has its compiler.
func TestResolverChecksSettings(t *testing.T) {
	if _, err := Resolver("testdata/missing.orio"); err == nil {
		t.Error("Resolver accepted a missing annotation file")
	}
	resolve, err := Resolver("testdata/tiny.orio")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tiny@Westmere/gnu-4.4.7/t1", "LU@Westmere/gnu-4.4.7/t1"} {
		if _, err := resolve(name); err != nil {
			t.Errorf("resolve(%q): %v", name, err)
		}
	}
	_, err = resolve("tiny@Power7/intel-15.0.1/t1")
	if err == nil || !strings.Contains(err.Error(), "not available on Power7") {
		t.Fatalf("annotated kernel with icc on Power7: got %v, want a compiler error", err)
	}
}

// FuzzNamed feeds arbitrary names to Named. It must never panic, and a
// name it accepts must be exactly the name of the problem it builds.
// The committed corpus holds every name TestFormatPins pins, the
// forced-OpenMP, off-size and mini-app names, and malformed ones.
func FuzzNamed(f *testing.F) {
	settings := Spec{Annotation: "testdata/tiny.orio", Faults: 0.1, Retries: 1, Seed: 3}
	f.Fuzz(func(t *testing.T, name string) {
		s, p, err := settings.Named(name)
		if err != nil {
			return
		}
		if p.Name() != name {
			t.Fatalf("Named(%q) built %q", name, p.Name())
		}
		again, err := s.Base()
		if err != nil || again.Name() != name {
			t.Fatalf("Named(%q) returned a spec that does not build it (err %v)", name, err)
		}
	})
}
