package kernels

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
)

// TestTableIII verifies the kernel collection against the paper's
// Table III: parameter counts exactly, search-space sizes to the same
// order of magnitude (our spaces are reconstructed from Table I's
// transformation ranges; EXPERIMENTS.md records the exact values).
func TestTableIII(t *testing.T) {
	cases := []struct {
		name      string
		ni        int
		size      float64
		inputSize string
	}{
		{"MM", 12, 8.58e10, "2000x2000"},
		{"ATAX", 13, 2.57e12, "10000"},
		{"COR", 12, 8.57e10, "2000x2000"},
		{"LU", 9, 5.83e8, "2000x2000"},
	}
	for _, c := range cases {
		k, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Space().NumParams(); got != c.ni {
			t.Errorf("%s: %d parameters, Table III says %d", c.name, got, c.ni)
		}
		ratio := k.Space().Size() / c.size
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: space size %.3g vs Table III %.3g (ratio %.2f)",
				c.name, k.Space().Size(), c.size, ratio)
		}
		if k.InputSize != c.inputSize {
			t.Errorf("%s: input size %s, want %s", c.name, k.InputSize, c.inputSize)
		}
	}
}

// TestTableIRanges verifies the transformation ranges of Table I on the
// kernels that use the full ranges (MM, COR).
func TestTableIRanges(t *testing.T) {
	for _, name := range []string{"MM", "COR"} {
		k, _ := ByName(name)
		s := k.Space()
		for i := 0; i < s.NumParams(); i++ {
			p := s.Param(i)
			switch {
			case p.Name[0] == 'U':
				if p.Value(0) != 1 || p.Value(p.Levels()-1) != 32 {
					t.Errorf("%s/%s: unroll range not 1..32", name, p.Name)
				}
			case p.Name[0] == 'T':
				if p.Value(0) != 1 || p.Value(p.Levels()-1) != 2048 {
					t.Errorf("%s/%s: cache tile range not 2^0..2^11", name, p.Name)
				}
			case p.Name[0] == 'R':
				if p.Value(0) != 1 || p.Value(p.Levels()-1) != 32 {
					t.Errorf("%s/%s: register tile range not 2^0..2^5", name, p.Name)
				}
			}
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("FFT"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if k, err := ByName("lu"); err != nil || k.Name != "LU" {
		t.Fatal("case-insensitive lookup failed")
	}
}

// TestOffSizeKernelNames: at the paper size each kernel keeps its bare
// name; at any other size the name carries the size, so the off-size
// problem never shares a name (cache scope, journal meta, wire name)
// with the paper-size one, and ByName refuses it.
func TestOffSizeKernelNames(t *testing.T) {
	tgt := sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1}
	for _, tc := range []struct {
		build       func(int) *Kernel
		paper, off  int
		name, sized string
	}{
		{MM, DefaultMMSize, 1000, "MM", "MM_n1000"},
		{ATAX, DefaultATAXSize, 5000, "ATAX", "ATAX_n5000"},
		{COR, DefaultCORSize, 3000, "COR", "COR_n3000"},
		{LU, DefaultLUSize, 1500, "LU", "LU_n1500"},
	} {
		if got := tc.build(tc.paper).Name; got != tc.name {
			t.Errorf("%s at its paper size is named %q", tc.name, got)
		}
		off := tc.build(tc.off)
		if off.Name != tc.sized {
			t.Errorf("%s at size %d is named %q, want %q", tc.name, tc.off, off.Name, tc.sized)
		}
		paperProblem, offProblem := NewProblem(tc.build(tc.paper), tgt), NewProblem(off, tgt)
		if paperProblem.Name() == offProblem.Name() {
			t.Errorf("%s: off-size problem shares the paper-size name %q", tc.name, offProblem.Name())
		}
		if _, err := ByName(off.Name); err == nil {
			t.Errorf("ByName(%q) resolved an off-size name", off.Name)
		}
	}
}

func TestAllKernelsValid(t *testing.T) {
	ks := All()
	if len(ks) != 4 {
		t.Fatalf("All() returned %d kernels", len(ks))
	}
	for _, k := range ks {
		for _, n := range k.Nests {
			if err := n.Validate(); err != nil {
				t.Errorf("%s nest %s invalid: %v", k.Name, n.Name, err)
			}
		}
	}
}

func TestSpecsForDefaultIsIdentity(t *testing.T) {
	for _, k := range All() {
		specs := k.SpecsFor(k.Space().Default())
		for _, s := range specs {
			for v, u := range s.Unrolls {
				if u != 1 {
					t.Errorf("%s: default unroll %s=%d", k.Name, v, u)
				}
			}
			for v, tl := range s.CacheTiles {
				if tl != 1 {
					t.Errorf("%s: default tile %s=%d", k.Name, v, tl)
				}
			}
			if s.ScalarReplace || s.VectorHint {
				t.Errorf("%s: default turns on SCR/VEC", k.Name)
			}
		}
	}
}

func TestSpecsForBindsParameters(t *testing.T) {
	k := MM(2000)
	s := k.Space()
	c := s.Default()
	c[s.Index("U_K")] = 7  // value 8
	c[s.Index("T_J")] = 5  // 2^5 = 32
	c[s.Index("RT_I")] = 2 // 2^2 = 4
	c[s.Index("SCR")] = 1
	spec := k.SpecsFor(c)[0]
	if spec.Unrolls["k"] != 8 {
		t.Fatalf("U_K not bound: %v", spec.Unrolls)
	}
	if spec.CacheTiles["j"] != 32 {
		t.Fatalf("T_J not bound: %v", spec.CacheTiles)
	}
	if spec.RegTiles["i"] != 4 {
		t.Fatalf("RT_I not bound: %v", spec.RegTiles)
	}
	if !spec.ScalarReplace {
		t.Fatal("SCR not bound")
	}
}

func TestATAXBindsBothNests(t *testing.T) {
	k := ATAX(10000)
	s := k.Space()
	c := s.Default()
	c[s.Index("U_J1")] = 3 // 4
	c[s.Index("U_J2")] = 7 // 8
	specs := k.SpecsFor(c)
	if len(specs) != 2 {
		t.Fatalf("ATAX has %d specs", len(specs))
	}
	if specs[0].Unrolls["j"] != 4 || specs[1].Unrolls["j"] != 8 {
		t.Fatalf("per-nest binding wrong: %v / %v", specs[0].Unrolls, specs[1].Unrolls)
	}
}

func TestOMPGating(t *testing.T) {
	k := MM(2000)
	s := k.Space()
	c := s.Default()
	if k.OMPEnabled(c) {
		t.Fatal("OMP default should be off for MM")
	}
	c[s.Index("OMP")] = 1
	if !k.OMPEnabled(c) {
		t.Fatal("OMP=1 not detected")
	}
	// LU has no OMP knob: always enabled (threads come from the target).
	lu := LU(2000)
	if !lu.OMPEnabled(lu.Space().Default()) {
		t.Fatal("LU should always use target threads")
	}
}

func gnuProblem(t *testing.T, name string, m machine.Machine) *Problem {
	t.Helper()
	k, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return NewProblem(k, sim.Target{Machine: m, Compiler: machine.GNU, Threads: 1})
}

func TestProblemEvaluateDeterministic(t *testing.T) {
	p := gnuProblem(t, "LU", machine.Sandybridge)
	c := p.Space().Random(rng.New(1))
	r1, c1 := p.Evaluate(c)
	r2, c2 := p.Evaluate(c)
	if r1 != r2 || c1 != c2 {
		t.Fatal("evaluation not deterministic")
	}
	if r1 <= 0 || c1 <= r1 {
		t.Fatalf("degenerate evaluation: run=%v cost=%v", r1, c1)
	}
}

func TestProblemName(t *testing.T) {
	p := gnuProblem(t, "MM", machine.Westmere)
	if p.Name() != "MM@Westmere/gnu-4.4.7/t1" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestEvaluationLandscapeHasSpread(t *testing.T) {
	// 60 random configurations must span a meaningful run-time range on
	// every kernel (the paper's Figure 1 shows a wide spread).
	r := rng.New(42)
	for _, name := range []string{"MM", "ATAX", "COR", "LU"} {
		p := gnuProblem(t, name, machine.Sandybridge)
		var runs []float64
		for i := 0; i < 60; i++ {
			run, _ := p.Evaluate(p.Space().Random(r))
			runs = append(runs, run)
		}
		spread := stats.Max(runs) / stats.Min(runs)
		if spread < 1.5 {
			t.Errorf("%s: landscape spread only %.2fx", name, spread)
		}
	}
}

// TestFigure1Correlation reproduces the paper's Figure 1 premise: 200
// random LU configurations must correlate strongly (Pearson and Spearman
// > 0.8) between Westmere and Sandybridge.
func TestFigure1Correlation(t *testing.T) {
	lu, _ := ByName("LU")
	west := NewProblem(lu, sim.Target{Machine: machine.Westmere, Compiler: machine.GNU, Threads: 1})
	sandy := NewProblem(lu, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})
	r := rng.NewNamed(2016, "fig1-test")
	var w, s []float64
	for i := 0; i < 200; i++ {
		c := lu.Space().Random(r)
		rw, _ := west.Evaluate(c)
		rs, _ := sandy.Evaluate(c)
		w = append(w, rw)
		s = append(s, rs)
	}
	rp, err := stats.Pearson(w, s)
	if err != nil {
		t.Fatal(err)
	}
	rs_, err := stats.Spearman(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if rp < 0.8 {
		t.Errorf("Westmere/Sandybridge LU Pearson = %.3f, paper reports > 0.8", rp)
	}
	if rs_ < 0.8 {
		t.Errorf("Westmere/Sandybridge LU Spearman = %.3f, paper reports > 0.8", rs_)
	}
}

// The X-Gene landscape must NOT track Intel closely — the paper found no
// transfer benefit to ARM.
func TestXGeneRankCorrelationWeaker(t *testing.T) {
	lu, _ := ByName("LU")
	sandy := NewProblem(lu, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})
	xgene := NewProblem(lu, sim.Target{Machine: machine.XGene, Compiler: machine.GNU, Threads: 1})
	west := NewProblem(lu, sim.Target{Machine: machine.Westmere, Compiler: machine.GNU, Threads: 1})
	r := rng.NewNamed(2016, "xgene-test")
	var sb, xg, wm []float64
	for i := 0; i < 150; i++ {
		c := lu.Space().Random(r)
		a, _ := sandy.Evaluate(c)
		b, _ := xgene.Evaluate(c)
		d, _ := west.Evaluate(c)
		sb = append(sb, a)
		xg = append(xg, b)
		wm = append(wm, d)
	}
	sXG, _ := stats.Spearman(sb, xg)
	sWM, _ := stats.Spearman(sb, wm)
	if sXG >= sWM {
		t.Errorf("X-Gene rank correlation (%.3f) should be weaker than Westmere's (%.3f)", sXG, sWM)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	p := gnuProblem(t, "MM", machine.Sandybridge)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	p.Evaluate(space.Config{0})
}

func TestDefaultConfigMatchesUntransformed(t *testing.T) {
	// Problem cost must exceed run time by about the compile time.
	p := gnuProblem(t, "MM", machine.Sandybridge)
	run, cost := p.Evaluate(p.Space().Default())
	compile := cost - run
	if compile < machine.Sandybridge.CompileBaseS {
		t.Fatalf("compile component %.2f below base", compile)
	}
}

func TestThreadsFlowThroughOMP(t *testing.T) {
	k := MM(2000)
	tgt := sim.Target{Machine: machine.XeonPhi, Compiler: machine.Intel, Threads: 60}
	p := NewProblem(k, tgt)
	s := k.Space()
	coff := s.Default()
	con := s.Default()
	con[s.Index("OMP")] = 1
	roff, _ := p.Evaluate(coff)
	ron, _ := p.Evaluate(con)
	if ron >= roff {
		t.Fatalf("OMP=1 with 60 threads (%.4f) not faster than serial (%.4f)", ron, roff)
	}
	if roff/ron > 60 {
		t.Fatal("superlinear OMP scaling")
	}
	if math.IsNaN(ron) || math.IsInf(ron, 0) {
		t.Fatal("invalid run time")
	}
}

// TestEvaluationRobustnessProperty sweeps every kernel across every
// machine/compiler combination with random configurations: evaluations
// must always be finite, positive, and cost-consistent.
func TestEvaluationRobustnessProperty(t *testing.T) {
	r := rng.New(77)
	for _, k := range All() {
		for _, m := range machine.All() {
			for _, comp := range machine.Compilers() {
				if !m.SupportsCompiler(comp) {
					continue
				}
				for _, threads := range []int{1, m.Cores} {
					p := NewProblem(k, sim.Target{Machine: m, Compiler: comp, Threads: threads})
					for i := 0; i < 6; i++ {
						c := k.Space().Random(r)
						run, cost := p.Evaluate(c)
						if math.IsNaN(run) || math.IsInf(run, 0) || run <= 0 {
							t.Fatalf("%s on %s/%s t%d: run=%v for %s",
								k.Name, m.Name, comp.Name, threads, run, k.Space().String(c))
						}
						if cost <= run {
							t.Fatalf("%s on %s/%s: cost %v <= run %v",
								k.Name, m.Name, comp.Name, cost, run)
						}
					}
				}
			}
		}
	}
}

// TestExtremeConfigurationsEvaluate drives the corner cases: every knob
// at its maximum and at its minimum.
func TestExtremeConfigurationsEvaluate(t *testing.T) {
	for _, k := range All() {
		s := k.Space()
		low := s.Default()
		high := make(space.Config, s.NumParams())
		for i := range high {
			high[i] = s.Param(i).Levels() - 1
		}
		for _, m := range machine.All() {
			p := NewProblem(k, sim.Target{Machine: m, Compiler: machine.GNU, Threads: 1})
			for _, c := range []space.Config{low, high} {
				run, cost := p.Evaluate(c)
				if math.IsNaN(run) || run <= 0 || cost <= 0 {
					t.Fatalf("%s extreme config on %s: run=%v cost=%v", k.Name, m.Name, run, cost)
				}
			}
		}
	}
}

func TestCustomConstructorValidation(t *testing.T) {
	nest := MM(64).Nests[0]
	goodSpace := space.New(
		space.NewIntRange("U_X", 1, 4),
		space.NewPowerOfTwo("T_X", 0, 2),
		space.NewPowerOfTwo("RT_X", 0, 2),
		space.NewBoolean("SCR"),
	)
	k, err := Custom("custom", "64x64", []*ir.Nest{nest}, goodSpace,
		[]Binding{{Nest: 0, Var: "i", Suffix: "X"}}, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	c := k.Space().Default()
	c[k.Space().Index("U_X")] = 3
	if k.SpecsFor(c)[0].Unrolls["i"] != 4 {
		t.Fatal("custom binding not applied")
	}

	if _, err := Custom("x", "s", []*ir.Nest{nest}, goodSpace,
		[]Binding{{Nest: 5, Var: "i", Suffix: "X"}}, false, false, false); err == nil {
		t.Fatal("out-of-range nest accepted")
	}
	if _, err := Custom("x", "s", []*ir.Nest{nest}, goodSpace,
		[]Binding{{Nest: 0, Var: "zz", Suffix: "X"}}, false, false, false); err == nil {
		t.Fatal("unknown loop accepted")
	}
	if _, err := Custom("x", "s", []*ir.Nest{nest}, goodSpace,
		[]Binding{{Nest: 0, Var: "i", Suffix: "MISSING"}}, false, false, false); err == nil {
		t.Fatal("missing parameters accepted")
	}
	if _, err := Custom("x", "s", []*ir.Nest{nest}, goodSpace,
		[]Binding{{Nest: 0, Var: "i", Suffix: "X"}}, false, true, false); err == nil {
		t.Fatal("missing VEC switch accepted")
	}
	bad := nest.Clone()
	bad.Loops[0].Step = 0
	if _, err := Custom("x", "s", []*ir.Nest{bad}, goodSpace,
		[]Binding{{Nest: 0, Var: "i", Suffix: "X"}}, false, false, false); err == nil {
		t.Fatal("invalid nest accepted")
	}
}
