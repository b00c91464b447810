package cache

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ir"
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

func stdParams() Params {
	return Params{
		LineBytes: 64,
		Levels: []Level{
			{Name: "L1", CapacityBytes: 32 * 1024},
			{Name: "L2", CapacityBytes: 256 * 1024},
			{Name: "L3", CapacityBytes: 2.5 * 1024 * 1024},
		},
		CapacityFraction: 0.75,
	}
}

func analyze(t *testing.T, n *ir.Nest) Result {
	t.Helper()
	r, err := Analyze(n, stdParams())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWorkCounting(t *testing.T) {
	r := analyze(t, mmNest(100))
	if r.Flops != 2e6 {
		t.Fatalf("flops = %v", r.Flops)
	}
	if r.BodyExecs != 1e6 {
		t.Fatalf("body execs = %v", r.BodyExecs)
	}
	if r.FootprintBytes != 3*100*100*8 {
		t.Fatalf("footprint = %v, want %v", r.FootprintBytes, 3*100*100*8)
	}
}

// Untransformed MM: A and B are loaded on every body execution; C is
// register-resident across the k loop.
func TestRegisterReuseUntransformed(t *testing.T) {
	n := 100.0
	r := analyze(t, mmNest(n))
	wantLoads := 2*n*n*n + n*n // A, B per iteration; C once per (i,j)
	if math.Abs(r.RegLoads-wantLoads)/wantLoads > 1e-9 {
		t.Fatalf("RegLoads = %v, want %v", r.RegLoads, wantLoads)
	}
	if math.Abs(r.RegStores-n*n)/(n*n) > 1e-9 {
		t.Fatalf("RegStores = %v, want %v", r.RegStores, n*n)
	}
}

// Register tiling RT_I x RT_J must reduce loads to N^3 (1/RT_J + 1/RT_I)
// + N^2 — the classical unroll-and-jam result.
func TestRegisterTilingReducesLoads(t *testing.T) {
	n := 512.0
	base := mmNest(n)
	spec := transform.Spec{
		Order:    []string{"i", "j", "k"},
		RegTiles: transform.Factors{{Var: "i", N: 4}, {Var: "j", N: 2}},
	}
	tiled, err := transform.Apply(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, tiled)
	want := n*n*n*(1.0/2+1.0/4) + n*n
	if math.Abs(r.RegLoads-want)/want > 1e-6 {
		t.Fatalf("register-tiled loads = %v, want %v", r.RegLoads, want)
	}
	// Pressure must include the 4x2 block of C plus A and B vectors.
	if r.RegPressure < 4*2+4+2 {
		t.Fatalf("pressure = %v, want >= 14", r.RegPressure)
	}
}

// Unrolling a non-innermost loop jams: it also creates register reuse.
func TestOuterUnrollActsAsJam(t *testing.T) {
	n := 256.0
	nest := mmNest(n)
	if err := transform.Unroll(nest, "j", 4); err != nil {
		t.Fatal(err)
	}
	r := analyze(t, nest)
	// A invariant in j: loads cut 4x. B varies: unchanged. C: N^2.
	want := n*n*n/4 + n*n*n + n*n
	if math.Abs(r.RegLoads-want)/want > 1e-6 {
		t.Fatalf("outer-unrolled loads = %v, want %v", r.RegLoads, want)
	}
}

// Innermost unroll does not change loads (no jam), only loop overhead.
func TestInnermostUnrollReducesOverheadOnly(t *testing.T) {
	n := 256.0
	plain := analyze(t, mmNest(n))
	unrolled := mmNest(n)
	if err := transform.Unroll(unrolled, "k", 8); err != nil {
		t.Fatal(err)
	}
	ru := analyze(t, unrolled)
	if ru.RegLoads != plain.RegLoads {
		t.Fatalf("innermost unroll changed loads: %v -> %v", plain.RegLoads, ru.RegLoads)
	}
	if ru.LoopOverheadOps >= plain.LoopOverheadOps {
		t.Fatalf("innermost unroll did not reduce overhead: %v -> %v",
			plain.LoopOverheadOps, ru.LoopOverheadOps)
	}
	if ru.UnrollProduct != 8 {
		t.Fatalf("unroll product = %v", ru.UnrollProduct)
	}
}

func TestCacheTilingReducesDRAMTraffic(t *testing.T) {
	n := 2000.0
	plain := analyze(t, mmNest(n))

	spec := transform.Spec{
		Order:      []string{"i", "j", "k"},
		CacheTiles: transform.Factors{{Var: "i", N: 32}, {Var: "j", N: 32}, {Var: "k", N: 32}},
	}
	tiled, err := transform.Apply(mmNest(n), spec)
	if err != nil {
		t.Fatal(err)
	}
	rt := analyze(t, tiled)

	last := len(plain.Traffic) - 1
	if rt.Traffic[last] >= plain.Traffic[last] {
		t.Fatalf("tiling did not reduce DRAM traffic: %v -> %v",
			plain.Traffic[last], rt.Traffic[last])
	}
	// The reduction should be at least 5x for a 32^3 tile at N=2000.
	if plain.Traffic[last]/rt.Traffic[last] < 5 {
		t.Fatalf("tiling reduction too small: %vx", plain.Traffic[last]/rt.Traffic[last])
	}
}

func TestTrafficMonotoneAcrossLevels(t *testing.T) {
	for _, tile := range []int{1, 8, 64, 512} {
		spec := transform.Spec{
			Order:      []string{"i", "j", "k"},
			CacheTiles: transform.Factors{{Var: "i", N: tile}, {Var: "j", N: tile}, {Var: "k", N: tile}},
		}
		nest, err := transform.Apply(mmNest(2000), spec)
		if err != nil {
			t.Fatal(err)
		}
		r := analyze(t, nest)
		for i := 1; i < len(r.Traffic); i++ {
			if r.Traffic[i] > r.Traffic[i-1]*(1+1e-9) {
				t.Fatalf("tile %d: traffic not monotone: %v", tile, r.Traffic)
			}
		}
	}
}

func TestSmallProblemFitsInCache(t *testing.T) {
	// A 16x16 problem (3 arrays * 2KB) fits in L1: traffic should be just
	// the cold footprint at every level.
	r := analyze(t, mmNest(16))
	for i, tr := range r.Traffic {
		// Cold traffic is about footprint-scale, far below per-access.
		if tr > 6*r.FootprintBytes {
			t.Fatalf("level %d traffic %v exceeds cold-miss scale (footprint %v)",
				i, tr, r.FootprintBytes)
		}
	}
}

func TestColumnAccessCostsMoreLines(t *testing.T) {
	// B[k][j] is a column access w.r.t. k at fixed j: compare DRAM traffic
	// of MM (has a column-ish access pattern for B over k) against a
	// variant where B is accessed row-wise.
	n := mmNest(1500)
	rowwise := mmNest(1500)
	// Make B's access row-major aligned with k: B[j][k] instead of B[k][j].
	rowwise.Body[0].Refs[2].Index = []ir.Expr{ir.Sym("j", 1), ir.Sym("k", 1)}
	rc := analyze(t, n)
	rr := analyze(t, rowwise)
	if rr.Traffic[0] >= rc.Traffic[0] {
		t.Fatalf("row-wise access should reduce L1 traffic: %v vs %v",
			rr.Traffic[0], rc.Traffic[0])
	}
}

func TestVectorizability(t *testing.T) {
	// MM with loop order i,j,k: innermost k; C invariant (ok), A stride-1
	// in last dim (ok), B varies in first dim with k (gather-like: not ok).
	r := analyze(t, mmNest(200))
	if math.Abs(r.VecFraction-2.0/3) > 1e-9 {
		t.Fatalf("vec fraction = %v, want 2/3", r.VecFraction)
	}
	if r.InnermostTrip != 200 {
		t.Fatalf("innermost trip = %v", r.InnermostTrip)
	}
}

func TestVectorizabilityAfterInterchange(t *testing.T) {
	// Loop order i,k,j: innermost j; C stride-1, A invariant, B stride-1:
	// fully vectorizable.
	n := mmNest(200)
	if err := transform.Interchange(n, 1, 2); err != nil {
		t.Fatal(err)
	}
	r := analyze(t, n)
	if r.VecFraction != 1 {
		t.Fatalf("ikj vec fraction = %v, want 1", r.VecFraction)
	}
}

func TestTriangularNestAnalyzes(t *testing.T) {
	N := ir.Sym("N", 1)
	lu := &ir.Nest{
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
		Sizes: map[string]float64{"N": 2000},
	}
	r := analyze(t, lu)
	if r.Flops <= 0 || r.RegLoads <= 0 || r.Traffic[0] <= 0 {
		t.Fatalf("triangular analysis degenerate: %+v", r)
	}
	// Footprint cannot exceed the array size (overlapping refs capped).
	if r.FootprintBytes > 2000*2000*8+1 {
		t.Fatalf("footprint %v exceeds array size", r.FootprintBytes)
	}
}

func TestTilePointLoopFootprintCouplesToTileLoop(t *testing.T) {
	// After tiling, the footprint over the WHOLE nest must still be the
	// whole arrays (the tile loops sweep everything), not a single tile.
	spec := transform.Spec{
		Order:      []string{"i", "j", "k"},
		CacheTiles: transform.Factors{{Var: "i", N: 16}, {Var: "j", N: 16}, {Var: "k", N: 16}},
	}
	nest, err := transform.Apply(mmNest(1000), spec)
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, nest)
	want := 3 * 1000 * 1000 * 8.0
	if math.Abs(r.FootprintBytes-want)/want > 0.01 {
		t.Fatalf("tiled whole-nest footprint = %v, want %v", r.FootprintBytes, want)
	}
}

func TestAnalyzeRejectsInvalidNest(t *testing.T) {
	n := mmNest(10)
	n.Loops[0].Step = 0
	if _, err := Analyze(n, stdParams()); err == nil {
		t.Fatal("invalid nest accepted")
	}
	if _, err := Analyze(mmNest(10), Params{LineBytes: 0}); err == nil {
		t.Fatal("zero line size accepted")
	}
}

func TestLargerCacheNeverIncreasesTraffic(t *testing.T) {
	for _, tile := range []int{1, 4, 16, 64, 256} {
		spec := transform.Spec{
			Order:      []string{"i", "j", "k"},
			CacheTiles: transform.Factors{{Var: "i", N: tile}, {Var: "j", N: tile}, {Var: "k", N: tile}},
		}
		nest, err := transform.Apply(mmNest(1200), spec)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for _, kb := range []float64{8, 32, 128, 512, 2048, 8192} {
			p := Params{LineBytes: 64, Levels: []Level{{Name: "C", CapacityBytes: kb * 1024}}, CapacityFraction: 0.75}
			r, err := Analyze(nest, p)
			if err != nil {
				t.Fatal(err)
			}
			if r.Traffic[0] > prev*(1+1e-9) {
				t.Fatalf("tile %d: traffic increased with capacity %vKB", tile, kb)
			}
			prev = r.Traffic[0]
		}
	}
}

func TestRegisterPressureGrowsWithBlock(t *testing.T) {
	prev := 0.0
	for _, rt := range []int{1, 2, 4, 8} {
		spec := transform.Spec{
			Order:    []string{"i", "j", "k"},
			RegTiles: transform.Factors{{Var: "i", N: rt}, {Var: "j", N: rt}},
		}
		nest, err := transform.Apply(mmNest(512), spec)
		if err != nil {
			t.Fatal(err)
		}
		r := analyze(t, nest)
		if r.RegPressure <= prev {
			t.Fatalf("pressure did not grow with block %d: %v", rt, r.RegPressure)
		}
		prev = r.RegPressure
	}
}

func TestWriteTrafficCountsDouble(t *testing.T) {
	// Same nest but with C read-only should see less traffic.
	wr := mmNest(1200)
	ro := mmNest(1200)
	ro.Body[0].Refs[0].Write = false
	rwr := analyze(t, wr)
	rro := analyze(t, ro)
	last := len(rwr.Traffic) - 1
	if rwr.Traffic[last] <= rro.Traffic[last] {
		t.Fatalf("write-back not accounted: write %v <= read-only %v",
			rwr.Traffic[last], rro.Traffic[last])
	}
}

func TestDistinctRefDedup(t *testing.T) {
	n := mmNest(64)
	// Duplicate the A reference in a second statement.
	n.Body = append(n.Body, ir.Stmt{
		Refs:  []ir.Ref{{Array: "A", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("k", 1)}}},
		Flops: 1,
	})
	refs := distinctRefs(nil, n)
	if len(refs) != 3 {
		t.Fatalf("dedup failed: %d distinct refs", len(refs))
	}
}

// TestAnalyzePropertyNonNegativeDeterministic: for arbitrary valid
// transformation specs, the analysis must be deterministic and produce
// non-negative, finite quantities with monotone level traffic.
func TestAnalyzePropertyNonNegativeDeterministic(t *testing.T) {
	f := func(u1, u2, u3, t1, t2, t3, r1, r2, r3 uint8) bool {
		spec := transform.Spec{
			Order:      []string{"i", "j", "k"},
			Unrolls:    transform.Factors{{Var: "i", N: int(u1%32) + 1}, {Var: "j", N: int(u2%32) + 1}, {Var: "k", N: int(u3%32) + 1}},
			CacheTiles: transform.Factors{{Var: "i", N: 1 << (t1 % 12)}, {Var: "j", N: 1 << (t2 % 12)}, {Var: "k", N: 1 << (t3 % 12)}},
			RegTiles:   transform.Factors{{Var: "i", N: 1 << (r1 % 6)}, {Var: "j", N: 1 << (r2 % 6)}, {Var: "k", N: 1 << (r3 % 6)}},
		}
		nest, err := transform.Apply(mmNest(500), spec)
		if err != nil {
			return false
		}
		a, err := Analyze(nest, stdParams())
		if err != nil {
			return false
		}
		b, err := Analyze(nest, stdParams())
		if err != nil {
			return false
		}
		if a.RegLoads != b.RegLoads || a.Traffic[0] != b.Traffic[0] {
			return false // non-deterministic
		}
		for _, v := range []float64{a.Flops, a.RegLoads, a.RegStores, a.RegPressure, a.BlockIters, a.LoopOverheadOps} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		for i, tr := range a.Traffic {
			if tr < 0 || math.IsNaN(tr) {
				return false
			}
			if i > 0 && tr > a.Traffic[i-1]*(1+1e-9) {
				return false // outer level seeing more traffic than inner
			}
		}
		// Register loads can never exceed the no-reuse bound.
		return a.RegLoads <= a.NaiveLoads*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
