package miniapps

import (
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/stats"
)

func TestHPLSpaceShape(t *testing.T) {
	h := HPL()
	if h.Space().NumParams() != 15 {
		t.Fatalf("HPL has %d parameters, paper says 15", h.Space().NumParams())
	}
	if h.Space().Size() < 1e6 {
		t.Fatalf("HPL space suspiciously small: %v", h.Space().Size())
	}
}

func TestRTSpaceShape(t *testing.T) {
	r := RT()
	if got := r.Space().NumParams(); got != RTFlagCount+RTParamCount {
		t.Fatalf("RT has %d parameters, want %d flags + %d params",
			got, RTFlagCount, RTParamCount)
	}
	// The first parameters must be the real gcc flags.
	if r.Space().Param(0).Name != "funroll-loops" {
		t.Fatalf("first RT flag = %s", r.Space().Param(0).Name)
	}
	if r.Space().Index("ftree-vectorize") < 0 {
		t.Fatal("ftree-vectorize missing")
	}
	if r.Space().Index("max-unroll-times") < 0 {
		t.Fatal("max-unroll-times missing")
	}
}

func TestEvaluateDeterministicAndPositive(t *testing.T) {
	for _, app := range []*App{HPL(), RT()} {
		p := NewProblem(app, machine.Sandybridge)
		c := p.Space().Random(rng.New(1))
		r1, c1 := p.Evaluate(c)
		r2, c2 := p.Evaluate(c)
		if r1 != r2 || c1 != c2 {
			t.Fatalf("%s evaluation not deterministic", app.Name)
		}
		if r1 <= 0 || c1 <= r1 {
			t.Fatalf("%s degenerate evaluation: run=%v cost=%v", app.Name, r1, c1)
		}
	}
}

// TestEvaluateConcurrentFirstUse: goroutines that race to a fresh
// problem's first evaluation, which builds its model, see what a serial
// problem computes.
func TestEvaluateConcurrentFirstUse(t *testing.T) {
	for _, app := range []*App{HPL(), RT()} {
		configs := make([]space.Config, 20)
		r := rng.New(4)
		for i := range configs {
			configs[i] = app.Space().Random(r)
		}
		serial := NewProblem(app, machine.XGene)
		want := make([]float64, len(configs))
		for i, c := range configs {
			want[i], _ = serial.Evaluate(c)
		}
		p := NewProblem(app, machine.XGene)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, c := range configs {
					if got, _ := p.Evaluate(c); got != want[i] {
						t.Errorf("%s: config %d: run %v, want %v", app.Name, i, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkEvaluate times one mini-app evaluation on Sandybridge, the
// model built.
func BenchmarkEvaluate(b *testing.B) {
	for _, app := range []*App{HPL(), RT()} {
		b.Run(app.Name, func(b *testing.B) {
			p := NewProblem(app, machine.Sandybridge)
			configs := make([]space.Config, 64)
			r := rng.New(9)
			for i := range configs {
				configs[i] = app.Space().Random(r)
				p.Evaluate(configs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Evaluate(configs[i%len(configs)])
			}
		})
	}
}

func TestProblemName(t *testing.T) {
	p := NewProblem(HPL(), machine.Power7)
	if p.Name() != "HPL@Power7" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	p := NewProblem(HPL(), machine.Sandybridge)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	p.Evaluate(space.Config{1})
}

func pairedRuns(t *testing.T, app *App, a, b machine.Machine, n int) (x, y []float64) {
	t.Helper()
	pa := NewProblem(app, a)
	pb := NewProblem(app, b)
	r := rng.NewNamed(99, "miniapp-corr-"+app.Name)
	for i := 0; i < n; i++ {
		c := app.Space().Random(r)
		ra, _ := pa.Evaluate(c)
		rb, _ := pb.Evaluate(c)
		x = append(x, ra)
		y = append(y, rb)
	}
	return x, y
}

// TestHPLWeakCorrelation checks the paper's observation that HPL's
// cross-machine correlation is weak ("Except for HPL, the plots exhibit
// a high correlation").
func TestHPLWeakCorrelation(t *testing.T) {
	x, y := pairedRuns(t, HPL(), machine.Westmere, machine.Sandybridge, 150)
	rho, err := stats.Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if rho > 0.75 {
		t.Fatalf("HPL Westmere/Sandybridge Spearman = %.3f; paper shows weak correlation", rho)
	}
	if rho < 0.05 {
		t.Fatalf("HPL correlation %.3f fully vanished; some shared structure must remain", rho)
	}
}

// TestRTStrongCorrelation: compiler-flag effects are mostly portable
// across the big cores, so RT should correlate well.
func TestRTStrongCorrelation(t *testing.T) {
	x, y := pairedRuns(t, RT(), machine.Westmere, machine.Sandybridge, 120)
	rho, err := stats.Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.6 {
		t.Fatalf("RT Westmere/Sandybridge Spearman = %.3f, expected strong", rho)
	}
}

func TestRTLandscapeResponsive(t *testing.T) {
	// Turning on the strong flags must speed the render up on a big
	// out-of-order machine.
	app := RT()
	p := NewProblem(app, machine.Sandybridge)
	spc := app.Space()
	off := spc.Default()
	on := spc.Default()
	for i := 0; i < 12; i++ {
		on[i] = 1
	}
	roff, _ := p.Evaluate(off)
	ron, _ := p.Evaluate(on)
	if ron >= roff {
		t.Fatalf("strong flags did not help: %v >= %v", ron, roff)
	}
}

func TestRTUnrollBadOnXGene(t *testing.T) {
	// funroll-loops helps Sandybridge but hurts the in-order X-Gene —
	// one of the machine-specific effects.
	app := RT()
	spc := app.Space()
	base := spc.Default()
	unroll := spc.Default()
	unroll[spc.Index("funroll-loops")] = 1

	deltaOn := func(m machine.Machine) float64 {
		p := NewProblem(app, m)
		rb, _ := p.Evaluate(base)
		ru, _ := p.Evaluate(unroll)
		return ru / rb
	}
	sb := deltaOn(machine.Sandybridge)
	xg := deltaOn(machine.XGene)
	if !(sb < 1.0) {
		t.Fatalf("funroll-loops should help Sandybridge (ratio %.3f)", sb)
	}
	if !(xg > sb) {
		t.Fatalf("funroll-loops should be relatively worse on X-Gene (%.3f vs %.3f)", xg, sb)
	}
}

func TestHPLStructure(t *testing.T) {
	app := HPL()
	p := NewProblem(app, machine.Sandybridge)
	spc := app.Space()

	timeFor := func(mut func(space.Config)) float64 {
		c := spc.Default()
		// A sane baseline: NB=128, P=2, Q=4.
		c[spc.Index("NB")] = 6
		c[spc.Index("P")] = 1
		c[spc.Index("Q")] = 3
		mut(c)
		r, _ := p.Evaluate(c)
		return r
	}

	sane := timeFor(func(space.Config) {})
	tinyNB := timeFor(func(c space.Config) { c[spc.Index("NB")] = 0 })
	if tinyNB <= sane {
		t.Fatalf("NB=8 (%.1f) should be much slower than NB=128 (%.1f)", tinyNB, sane)
	}
	oversub := timeFor(func(c space.Config) {
		c[spc.Index("P")] = 5
		c[spc.Index("Q")] = 5
	})
	if oversub <= sane {
		t.Fatalf("64 ranks on 8 cores (%.1f) should be slower than 8 ranks (%.1f)", oversub, sane)
	}
}

func TestHPLSpreadIsMeaningful(t *testing.T) {
	app := HPL()
	p := NewProblem(app, machine.Sandybridge)
	r := rng.New(5)
	var runs []float64
	for i := 0; i < 80; i++ {
		run, _ := p.Evaluate(app.Space().Random(r))
		runs = append(runs, run)
	}
	if stats.Max(runs)/stats.Min(runs) < 2 {
		t.Fatalf("HPL landscape spread %.2fx too flat", stats.Max(runs)/stats.Min(runs))
	}
}

func TestRTCompileCostDominatesEvaluation(t *testing.T) {
	// Each RT evaluation recompiles the raytracer; the evaluation cost
	// must therefore clearly exceed the render time alone.
	p := NewProblem(RT(), machine.Sandybridge)
	c := p.Space().Random(rng.New(9))
	run, cost := p.Evaluate(c)
	if cost-run < 5*machine.Sandybridge.CompileBaseS {
		t.Fatalf("RT compile overhead missing: run=%v cost=%v", run, cost)
	}
	// HPL, by contrast, only rewrites HPL.dat.
	ph := NewProblem(HPL(), machine.Sandybridge)
	hrun, hcost := ph.Evaluate(ph.Space().Random(rng.New(10)))
	if hcost-hrun > machine.Sandybridge.CompileBaseS {
		t.Fatalf("HPL should not pay a compile per evaluation: run=%v cost=%v", hrun, hcost)
	}
}

func TestPersonalityStableAndBounded(t *testing.T) {
	for _, m := range machine.All() {
		for _, tag := range []string{"a", "b", "c"} {
			v := personality(m, tag)
			if v < -1 || v > 1 {
				t.Fatalf("personality out of range: %v", v)
			}
			if v != personality(m, tag) {
				t.Fatal("personality unstable")
			}
		}
	}
	if personality(machine.Sandybridge, "x") == personality(machine.Power7, "x") {
		t.Fatal("personality identical across machines")
	}
}
