package faults

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// fakeProblem is a deterministic, fault-free problem: run time depends
// only on the configuration.
type fakeProblem struct {
	spc *space.Space
}

func newFake() *fakeProblem {
	return &fakeProblem{spc: space.New(
		space.NewIntRange("a", 0, 15),
		space.NewIntRange("b", 0, 15),
	)}
}

func (f *fakeProblem) Name() string        { return "fake@test" }
func (f *fakeProblem) Space() *space.Space { return f.spc }
func (f *fakeProblem) Evaluate(c space.Config) (float64, float64) {
	run := 1 + float64(c[0])*0.1 + float64(c[1])*0.01
	return run, run + 0.5 // 0.5s compile
}

// try runs one attempt through the injector's layer contract and splits
// the outcome into run time, charged cost and fault.
func try(inj *Injector, c space.Config) (float64, float64, error) {
	out := inj.EvaluateFull(context.Background(), c)
	return out.RunTime, out.Cost, out.Err
}

func TestInjectorDeterminism(t *testing.T) {
	rates := Rates{CompileFail: 0.2, Crash: 0.2, Hang: 0.1, NoiseTail: 0.1}
	r := rng.New(7)
	configs := make([]space.Config, 50)
	for i := range configs {
		configs[i] = newFake().Space().Random(r)
	}
	run := func() []float64 {
		inj := Wrap(newFake(), rates, 99)
		out := make([]float64, 0, 3*len(configs))
		for _, c := range configs {
			for attempt := 0; attempt < 3; attempt++ {
				rt, cost, err := try(inj, c)
				code := 0.0
				if err != nil {
					code = 1
					if search.IsTransient(err) {
						code = 2
					}
				}
				out = append(out, rt, cost, code)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("injection not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCompileFailureIsPermanent(t *testing.T) {
	// With CompileFail=1 every configuration fails on every attempt with
	// a non-transient error, charging only compile time.
	inj := Wrap(newFake(), Rates{CompileFail: 1}, 1)
	c := space.Config{3, 4}
	for attempt := 0; attempt < 4; attempt++ {
		rt, cost, err := try(inj, c)
		if err == nil {
			t.Fatalf("attempt %d: compile failure not injected", attempt)
		}
		if search.IsTransient(err) {
			t.Fatalf("compile failure marked transient")
		}
		var f *Fault
		if !errors.As(err, &f) || f.Kind != KindCompile {
			t.Fatalf("wrong error: %v", err)
		}
		if !math.IsInf(rt, 1) || cost <= 0 || cost >= 1 {
			t.Fatalf("compile failure charged run=%v cost=%v, want +Inf and ~0.5", rt, cost)
		}
	}
}

func TestCrashIsTransientAndPerAttempt(t *testing.T) {
	// Moderate crash rate: over many configs some attempts crash and a
	// later attempt of the same config succeeds.
	inj := Wrap(newFake(), Rates{Crash: 0.5}, 5)
	r := rng.New(11)
	recovered := false
	crashes := 0
	for i := 0; i < 200; i++ {
		c := newFake().Space().Random(r)
		_, _, err := try(inj, c)
		if err == nil {
			continue
		}
		crashes++
		if !search.IsTransient(err) {
			t.Fatalf("crash not transient: %v", err)
		}
		for attempt := 0; attempt < 6; attempt++ {
			if _, _, err2 := try(inj, c); err2 == nil {
				recovered = true
				break
			}
		}
	}
	if crashes == 0 {
		t.Fatal("no crashes injected at rate 0.5")
	}
	if !recovered {
		t.Fatal("no crashed configuration ever succeeded on retry")
	}
}

func TestHangInflatesRunTime(t *testing.T) {
	inj := Wrap(newFake(), Rates{Hang: 1, HangFactor: 50}, 3)
	c := space.Config{0, 0}
	clean, _ := newFake().Evaluate(c)
	rt, cost, err := try(inj, c)
	if err != nil {
		t.Fatal(err)
	}
	if rt < 40*clean {
		t.Fatalf("hang inflated run only to %v (clean %v)", rt, clean)
	}
	if cost < rt {
		t.Fatalf("hang cost %v below run %v", cost, rt)
	}
}

func TestNoiseTailOnlyInflates(t *testing.T) {
	inj := Wrap(newFake(), Rates{NoiseTail: 1, NoiseSigma: 1.5}, 4)
	r := rng.New(13)
	inflated := 0
	for i := 0; i < 100; i++ {
		c := newFake().Space().Random(r)
		clean, _ := newFake().Evaluate(c)
		rt, _, err := try(inj, c)
		if err != nil {
			t.Fatal(err)
		}
		if rt < clean {
			t.Fatalf("outlier deflated run: %v < %v", rt, clean)
		}
		if rt > 2*clean {
			inflated++
		}
	}
	if inflated == 0 {
		t.Fatal("no heavy-tail outliers above 2x at sigma 1.5")
	}
}

func TestScaledToPreservesProportions(t *testing.T) {
	r := Rates{CompileFail: 0.02, Crash: 0.06, Hang: 0.02, NoiseTail: 0.01}
	s := r.ScaledTo(0.30)
	if math.Abs(s.FailureTotal()-0.30) > 1e-12 {
		t.Fatalf("total = %v, want 0.30", s.FailureTotal())
	}
	if math.Abs(s.Crash/s.CompileFail-3) > 1e-9 {
		t.Fatalf("proportions changed: %+v", s)
	}
	z := r.ScaledTo(0)
	if z.FailureTotal() != 0 || z.NoiseTail != 0 {
		t.Fatalf("ScaledTo(0) left mass: %+v", z)
	}
	even := Rates{}.ScaledTo(0.3)
	if math.Abs(even.FailureTotal()-0.3) > 1e-12 {
		t.Fatalf("zero profile scaled to %v", even.FailureTotal())
	}
}

func TestProfilesDistinctPerMachine(t *testing.T) {
	names := []string{"Sandybridge", "Westmere", "XeonPhi", "Power7", "X-Gene"}
	seen := map[Rates]string{}
	for _, n := range names {
		p := Profile(n)
		if p.FailureTotal() <= 0 {
			t.Fatalf("%s has no failure mass", n)
		}
		if prev, dup := seen[p]; dup {
			t.Fatalf("%s and %s share a fault profile", n, prev)
		}
		seen[p] = n
	}
	if Profile("nonesuch").FailureTotal() <= 0 {
		t.Fatal("unknown machine has no generic profile")
	}
}

func TestInjectedCounts(t *testing.T) {
	inj := Wrap(newFake(), Rates{CompileFail: 1}, 2)
	if _, _, err := try(inj, space.Config{1, 1}); err == nil {
		t.Fatal("expected failure")
	}
	if inj.Injected()["compile"] != 1 {
		t.Fatalf("counts = %v", inj.Injected())
	}
	if inj.Name() != "fake@test" || inj.Space().NumParams() != 2 {
		t.Fatal("injector does not preserve problem identity")
	}
}

// TestNormalizeClampsNegatives: negative rates are invalid probability
// mass; Normalize clamps each to zero and reports a warning per field.
func TestNormalizeClampsNegatives(t *testing.T) {
	r, warns := Rates{CompileFail: -0.1, Crash: -1, Hang: 0.2, NoiseTail: -0.5}.Normalize()
	if r.CompileFail != 0 || r.Crash != 0 || r.NoiseTail != 0 {
		t.Fatalf("negative rates not clamped: %+v", r)
	}
	if r.Hang != 0.2 {
		t.Fatalf("valid rate changed: hang = %g, want 0.2", r.Hang)
	}
	if len(warns) != 3 {
		t.Fatalf("got %d warnings, want 3: %v", len(warns), warns)
	}
}

// TestNormalizeRescalesOverfullTotal: failure mass above the cap is
// rescaled proportionally so the profile stays a valid distribution
// while preserving the compile/crash/hang ratios.
func TestNormalizeRescalesOverfullTotal(t *testing.T) {
	r, warns := Rates{CompileFail: 0.9, Crash: 0.45, Hang: 0.15}.Normalize()
	if total := r.FailureTotal(); math.Abs(total-0.999) > 1e-12 {
		t.Fatalf("rescaled total = %g, want 0.999", total)
	}
	if math.Abs(r.CompileFail/r.Crash-2) > 1e-12 || math.Abs(r.Crash/r.Hang-3) > 1e-12 {
		t.Fatalf("rescaling broke proportions: %+v", r)
	}
	if len(warns) != 1 {
		t.Fatalf("got %d warnings, want 1: %v", len(warns), warns)
	}
}

// TestNormalizeClampsNoiseTail: a noise-tail probability above 1 is
// clamped with a warning; an in-range profile passes through untouched.
func TestNormalizeClampsNoiseTail(t *testing.T) {
	r, warns := Rates{NoiseTail: 1.7}.Normalize()
	if r.NoiseTail != 1 || len(warns) != 1 {
		t.Fatalf("got %+v with %v, want NoiseTail 1 and one warning", r, warns)
	}
	clean := Rates{CompileFail: 0.05, Crash: 0.02, Hang: 0.01, NoiseTail: 0.1}
	if got, warns := clean.Normalize(); got != clean || len(warns) != 0 {
		t.Fatalf("clean profile changed: %+v, warnings %v", got, warns)
	}
}

// TestScaledToValidatesInputs pins the repaired edge cases: negative
// component rates are clamped before scaling, a negative target behaves
// like zero, and a target above the cap is capped — the result is
// always an in-range probability profile.
func TestScaledToValidatesInputs(t *testing.T) {
	// Negative input rate: clamped away, remaining mass carries the
	// whole target.
	r := Rates{CompileFail: -0.3, Crash: 0.1}.ScaledTo(0.2)
	if r.CompileFail != 0 || math.Abs(r.Crash-0.2) > 1e-12 {
		t.Fatalf("negative rate leaked into scaling: %+v", r)
	}

	// Negative target: all mass removed.
	r = Rates{CompileFail: 0.1, Crash: 0.1, NoiseTail: 0.2}.ScaledTo(-1)
	if r.FailureTotal() != 0 || r.NoiseTail != 0 {
		t.Fatalf("negative target left mass behind: %+v", r)
	}

	// Overfull target: capped at the maximum admissible total.
	r = Rates{CompileFail: 0.5, Crash: 0.5}.ScaledTo(3)
	if total := r.FailureTotal(); math.Abs(total-0.999) > 1e-12 {
		t.Fatalf("overfull target not capped: total = %g", total)
	}

	// NoiseTail scales with the same factor but never above 1.
	r = Rates{CompileFail: 0.1, NoiseTail: 0.2}.ScaledTo(0.9)
	if r.NoiseTail != 1 {
		t.Fatalf("noise tail not clamped after scaling: %+v", r)
	}
}

// TestWrapSurfacesWarnings: an injector built from an out-of-range
// profile normalizes it and keeps the warnings for the caller to log.
func TestWrapSurfacesWarnings(t *testing.T) {
	inj := Wrap(newFake(), Rates{CompileFail: -0.2, Crash: 1.5, Hang: 0.5}, 3)
	warns := inj.Warnings()
	if len(warns) != 2 {
		t.Fatalf("got %d warnings, want 2 (negative clamp + rescale): %v", len(warns), warns)
	}
	if inj.Rates().FailureTotal() > 0.999+1e-12 {
		t.Fatalf("injector kept an overfull profile: %+v", inj.Rates())
	}
	clean := Wrap(newFake(), Rates{CompileFail: 0.05}, 3)
	if len(clean.Warnings()) != 0 {
		t.Fatalf("clean profile produced warnings: %v", clean.Warnings())
	}
}
