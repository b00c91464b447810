package sim

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/transform"
)

func mmNest(n float64) *ir.Nest {
	N := ir.Sym("N", 1)
	return &ir.Nest{
		Name: "mm",
		Loops: []ir.Loop{
			{Var: "i", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
			{Var: "j", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
			{Var: "k", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
		},
		Body: []ir.Stmt{{
			Refs: []ir.Ref{
				{Array: "C", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("j", 1)}, Write: true},
				{Array: "A", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("k", 1)}},
				{Array: "B", Index: []ir.Expr{ir.Sym("k", 1), ir.Sym("j", 1)}},
			},
			Flops: 2,
		}},
		Arrays: map[string]ir.Array{
			"A": {Name: "A", Dims: []ir.Expr{N, N}, ElemSize: 8},
			"B": {Name: "B", Dims: []ir.Expr{N, N}, ElemSize: 8},
			"C": {Name: "C", Dims: []ir.Expr{N, N}, ElemSize: 8},
		},
		Sizes: map[string]float64{"N": n},
	}
}

func luNest(n float64) *ir.Nest {
	N := ir.Sym("N", 1)
	return &ir.Nest{
		Name: "lu",
		Loops: []ir.Loop{
			{Var: "k", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
			{Var: "i", Lower: ir.Sym("k", 1).AddConst(1), Upper: N, Step: 1, Unroll: 1},
			{Var: "j", Lower: ir.Sym("k", 1).AddConst(1), Upper: N, Step: 1, Unroll: 1},
		},
		Body: []ir.Stmt{{
			Refs: []ir.Ref{
				{Array: "A", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("j", 1)}, Write: true},
				{Array: "A", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("k", 1)}},
				{Array: "A", Index: []ir.Expr{ir.Sym("k", 1), ir.Sym("j", 1)}},
			},
			Flops: 2,
		}},
		Arrays: map[string]ir.Array{
			"A": {Name: "A", Dims: []ir.Expr{N, N}, ElemSize: 8},
		},
		Sizes: map[string]float64{"N": n},
	}
}

func gnuOn(m machine.Machine) Target {
	return Target{Machine: m, Compiler: machine.GNU, Threads: 1}
}

func goodSpec() transform.Spec {
	return transform.Spec{
		Order:      []string{"i", "j", "k"},
		Unrolls:    transform.Factors{{Var: "k", N: 4}},
		CacheTiles: transform.Factors{{Var: "i", N: 64}, {Var: "j", N: 64}, {Var: "k", N: 64}},
		RegTiles:   transform.Factors{{Var: "i", N: 4}, {Var: "j", N: 2}},
	}
}

func mustEval(t *testing.T, base *ir.Nest, spec transform.Spec, tgt Target) Cost {
	t.Helper()
	c, err := Evaluate(base, spec, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds <= 0 || c.CompileSeconds <= 0 {
		t.Fatalf("degenerate cost: %+v", c)
	}
	return c
}

func TestDeterminism(t *testing.T) {
	a := mustEval(t, mmNest(2000), goodSpec(), gnuOn(machine.Sandybridge))
	b := mustEval(t, mmNest(2000), goodSpec(), gnuOn(machine.Sandybridge))
	if a != b {
		t.Fatalf("evaluation not deterministic: %+v vs %+v", a, b)
	}
}

func TestNoiseVariesByConfig(t *testing.T) {
	s1 := goodSpec()
	s2 := goodSpec()
	s2.Unrolls = transform.Factors{{Var: "k", N: 5}}
	a := mustEval(t, mmNest(2000), s1, gnuOn(machine.Sandybridge))
	b := mustEval(t, mmNest(2000), s2, gnuOn(machine.Sandybridge))
	if a.RunSeconds == b.RunSeconds {
		t.Fatal("different configs produced identical run times")
	}
}

func TestTuningHelpsOnGNU(t *testing.T) {
	// A classic blocked configuration must beat the untransformed default
	// on the big out-of-order machines under GCC.
	for _, m := range []machine.Machine{machine.Sandybridge, machine.Westmere, machine.Power7} {
		def := mustEval(t, mmNest(2000), transform.Spec{Order: []string{"i", "j", "k"}}, gnuOn(m))
		tuned := mustEval(t, mmNest(2000), goodSpec(), gnuOn(m))
		if tuned.RunSeconds >= def.RunSeconds {
			t.Errorf("%s: tuned (%.3fs) not faster than default (%.3fs)",
				m.Name, tuned.RunSeconds, def.RunSeconds)
		}
		// And the gap should be meaningful (paper: code variants span a
		// wide run-time range).
		if def.RunSeconds/tuned.RunSeconds < 1.5 {
			t.Errorf("%s: tuning gain only %.2fx", m.Name, def.RunSeconds/tuned.RunSeconds)
		}
	}
}

func TestPhiMMDefaultBestUnderIntel(t *testing.T) {
	// Paper §V: on Xeon Phi with icc, the untransformed MM variant is the
	// best; manual transformations are detrimental.
	tgt := Target{Machine: machine.XeonPhi, Compiler: machine.Intel, Threads: 60}
	def := mustEval(t, mmNest(2000), transform.Spec{Order: []string{"i", "j", "k"}}, tgt)
	for _, spec := range []transform.Spec{
		goodSpec(),
		{Order: []string{"i", "j", "k"}, Unrolls: transform.Factors{{Var: "i", N: 16}, {Var: "j", N: 16}, {Var: "k", N: 16}}},
		{Order: []string{"i", "j", "k"}, CacheTiles: transform.Factors{{Var: "i", N: 128}, {Var: "j", N: 128}, {Var: "k", N: 128}},
			RegTiles: transform.Factors{{Var: "i", N: 8}, {Var: "j", N: 8}}},
	} {
		manual := mustEval(t, mmNest(2000), spec, tgt)
		if manual.RunSeconds <= def.RunSeconds {
			t.Errorf("Phi/icc MM: manual spec beat the default: %.4f <= %.4f",
				manual.RunSeconds, def.RunSeconds)
		}
	}
}

func TestPhiLUManualTransformsStillHelp(t *testing.T) {
	// LU is triangular: icc cannot auto-transform it, so manual tiling
	// still pays off even on the Phi (paper: RSb gets 850x search
	// speedup and 1.6x performance speedup on Phi LU).
	tgt := Target{Machine: machine.XeonPhi, Compiler: machine.Intel, Threads: 60}
	def := mustEval(t, luNest(2000), transform.Spec{Order: []string{"k", "i", "j"}}, tgt)
	tuned := mustEval(t, luNest(2000), transform.Spec{
		Order:      []string{"k", "i", "j"},
		CacheTiles: transform.Factors{{Var: "i", N: 64}, {Var: "j", N: 64}},
		Unrolls:    transform.Factors{{Var: "j", N: 4}},
	}, tgt)
	if tuned.RunSeconds >= def.RunSeconds {
		t.Errorf("Phi/icc LU: tuned (%.4f) not faster than default (%.4f)",
			tuned.RunSeconds, def.RunSeconds)
	}
}

func TestExcessiveUnrollHurts(t *testing.T) {
	// Unrolling all loops by 32 explodes the body: slower than moderate
	// unrolling on every machine, dramatically so on X-Gene.
	for _, m := range []machine.Machine{machine.Sandybridge, machine.XGene} {
		moderate := mustEval(t, mmNest(2000), transform.Spec{
			Order: []string{"i", "j", "k"}, Unrolls: transform.Factors{{Var: "k", N: 4}},
		}, gnuOn(m))
		extreme := mustEval(t, mmNest(2000), transform.Spec{
			Order: []string{"i", "j", "k"}, Unrolls: transform.Factors{{Var: "i", N: 32}, {Var: "j", N: 32}, {Var: "k", N: 32}},
		}, gnuOn(m))
		// Compare the structural components (X-Gene's per-variant
		// code-generation lottery intentionally scrambles RunSeconds).
		if extreme.ComputeSeconds+extreme.MemorySeconds <= moderate.ComputeSeconds+moderate.MemorySeconds {
			t.Errorf("%s: extreme unroll (%.3f) not structurally slower than moderate (%.3f)",
				m.Name, extreme.ComputeSeconds+extreme.MemorySeconds,
				moderate.ComputeSeconds+moderate.MemorySeconds)
		}
	}
}

func TestCompileTimeGrowsWithUnroll(t *testing.T) {
	small := mustEval(t, mmNest(500), transform.Spec{Order: []string{"i", "j", "k"}}, gnuOn(machine.Sandybridge))
	big := mustEval(t, mmNest(500), transform.Spec{
		Order: []string{"i", "j", "k"}, Unrolls: transform.Factors{{Var: "i", N: 32}, {Var: "j", N: 32}, {Var: "k", N: 32}},
	}, gnuOn(machine.Sandybridge))
	if big.CompileSeconds <= small.CompileSeconds*2 {
		t.Fatalf("compile time insensitive to code growth: %.2f vs %.2f",
			big.CompileSeconds, small.CompileSeconds)
	}
}

func TestXGeneCompilesSlowly(t *testing.T) {
	spec := goodSpec()
	sb := mustEval(t, mmNest(500), spec, gnuOn(machine.Sandybridge))
	xg := mustEval(t, mmNest(500), spec, gnuOn(machine.XGene))
	if xg.CompileSeconds < 4*sb.CompileSeconds {
		t.Fatalf("X-Gene compile (%.1fs) should be much slower than Sandybridge (%.1fs)",
			xg.CompileSeconds, sb.CompileSeconds)
	}
	if xg.RunSeconds < sb.RunSeconds {
		t.Fatal("X-Gene should not outrun Sandybridge")
	}
}

func TestThreadsSpeedUp(t *testing.T) {
	serial := mustEval(t, mmNest(2000), goodSpec(),
		Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})
	par := mustEval(t, mmNest(2000), goodSpec(),
		Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 8})
	if par.RunSeconds >= serial.RunSeconds {
		t.Fatalf("8 threads (%.3f) not faster than 1 (%.3f)", par.RunSeconds, serial.RunSeconds)
	}
	if serial.RunSeconds/par.RunSeconds > 8 {
		t.Fatal("superlinear parallel speedup")
	}
}

func TestUnsupportedCompilerRejected(t *testing.T) {
	_, err := Evaluate(mmNest(100), transform.Spec{},
		Target{Machine: machine.Power7, Compiler: machine.Intel})
	if err == nil {
		t.Fatal("icc on Power7 accepted")
	}
}

func TestRunTimePlausibleScale(t *testing.T) {
	// MM N=2000 = 16 GFlop. On Sandybridge GNU serial this should land
	// in roughly 1..100 seconds — the scale the paper's plots show.
	c := mustEval(t, mmNest(2000), goodSpec(), gnuOn(machine.Sandybridge))
	if c.RunSeconds < 0.3 || c.RunSeconds > 200 {
		t.Fatalf("implausible MM run time: %v s", c.RunSeconds)
	}
}

func TestCrossIntelCorrelationOfLandscape(t *testing.T) {
	// Landscape sanity behind Figure 1: a spread of configurations must
	// rank similarly on Westmere and Sandybridge. (The full correlation
	// experiment lives in internal/experiments; this is the smoke check.)
	specs := []transform.Spec{
		{Order: []string{"i", "j", "k"}},
		{Order: []string{"i", "j", "k"}, Unrolls: transform.Factors{{Var: "k", N: 4}}},
		{Order: []string{"i", "j", "k"}, CacheTiles: transform.Factors{{Var: "i", N: 64}, {Var: "j", N: 64}, {Var: "k", N: 64}}},
		goodSpec(),
		{Order: []string{"i", "j", "k"}, Unrolls: transform.Factors{{Var: "i", N: 32}, {Var: "j", N: 32}, {Var: "k", N: 32}}},
	}
	var w, s []float64
	for _, sp := range specs {
		cw := mustEval(t, mmNest(2000), sp, gnuOn(machine.Westmere))
		cs := mustEval(t, mmNest(2000), sp, gnuOn(machine.Sandybridge))
		w = append(w, cw.RunSeconds)
		s = append(s, cs.RunSeconds)
	}
	// Rank agreement: the best and worst specs should coincide.
	argmin := func(x []float64) int {
		b := 0
		for i := range x {
			if x[i] < x[b] {
				b = i
			}
		}
		return b
	}
	argmax := func(x []float64) int {
		b := 0
		for i := range x {
			if x[i] > x[b] {
				b = i
			}
		}
		return b
	}
	if argmin(w) != argmin(s) || argmax(w) != argmax(s) {
		t.Fatalf("Westmere and Sandybridge disagree on best/worst: %v vs %v", w, s)
	}
}

func TestSpecKeyCanonical(t *testing.T) {
	a := transform.Spec{Unrolls: transform.Factors{{Var: "i", N: 2}, {Var: "j", N: 3}}}
	b := transform.Spec{Unrolls: transform.Factors{{Var: "j", N: 3}, {Var: "i", N: 2}}}
	if SpecKey(a) != SpecKey(b) {
		t.Fatal("SpecKey depends on map order")
	}
	c := transform.Spec{Unrolls: transform.Factors{{Var: "i", N: 2}, {Var: "j", N: 4}}}
	if SpecKey(a) == SpecKey(c) {
		t.Fatal("SpecKey ignores values")
	}
	// Identity entries do not affect the key.
	d := transform.Spec{Unrolls: transform.Factors{{Var: "i", N: 2}, {Var: "j", N: 3}, {Var: "k", N: 1}}}
	if SpecKey(a) != SpecKey(d) {
		t.Fatal("identity entries change SpecKey")
	}
}

func TestTilingShiftsMMTowardComputeBound(t *testing.T) {
	// Untransformed MM at N=2000 streams B column-wise and is memory
	// bound; cache tiling must raise its compute fraction substantially.
	plain := mustEval(t, mmNest(2000), transform.Spec{Order: []string{"i", "j", "k"}}, gnuOn(machine.Sandybridge))
	tuned := mustEval(t, mmNest(2000), goodSpec(), gnuOn(machine.Sandybridge))
	frac := func(c Cost) float64 { return c.ComputeSeconds / (c.ComputeSeconds + c.MemorySeconds) }
	if frac(tuned) <= frac(plain) {
		t.Fatalf("tiling did not shift MM toward compute bound: %.3f -> %.3f",
			frac(plain), frac(tuned))
	}
	if math.Abs(frac(tuned)-frac(plain)) < 0.1 {
		t.Fatalf("compute-fraction shift too small: %.3f -> %.3f", frac(plain), frac(tuned))
	}
}
