package transform

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func mm(n float64) *ir.Nest {
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

func loopVars(n *ir.Nest) []string {
	vars := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		vars[i] = l.Var
	}
	return vars
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUnrollSetsFactor(t *testing.T) {
	n := mm(100)
	if err := Unroll(n, "k", 8); err != nil {
		t.Fatal(err)
	}
	if n.Loops[2].Unroll != 8 {
		t.Fatalf("unroll = %d", n.Loops[2].Unroll)
	}
}

func TestUnrollClampsToTripCount(t *testing.T) {
	n := mm(4)
	if err := Unroll(n, "k", 32); err != nil {
		t.Fatal(err)
	}
	if n.Loops[2].Unroll != 4 {
		t.Fatalf("unroll not clamped: %d", n.Loops[2].Unroll)
	}
}

func TestUnrollErrors(t *testing.T) {
	n := mm(10)
	if Unroll(n, "zz", 2) == nil {
		t.Fatal("unrolling missing loop succeeded")
	}
	if Unroll(n, "i", 0) == nil {
		t.Fatal("unroll factor 0 accepted")
	}
}

func TestCacheTileStructure(t *testing.T) {
	n := mm(2000)
	if err := CacheTile(n, []string{"i", "j", "k"}, []int{64, 64, 64}); err != nil {
		t.Fatal(err)
	}
	want := []string{"ii", "jj", "kk", "i", "j", "k"}
	if !equalStrings(loopVars(n), want) {
		t.Fatalf("tiled loop order = %v, want %v", loopVars(n), want)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("tiled nest invalid: %v", err)
	}
	// Tile loop trip count = N/tile; point loop trip = tile.
	if tc := n.TripCount(0); tc != 2000.0/64 {
		t.Fatalf("tile loop trip = %v", tc)
	}
	if tc := n.TripCount(3); tc != 64 {
		t.Fatalf("point loop trip = %v", tc)
	}
}

func TestCacheTilePreservesBodyExecutions(t *testing.T) {
	base := mm(1024)
	orig := base.BodyExecutions()
	if err := CacheTile(base, []string{"i", "j", "k"}, []int{32, 128, 16}); err != nil {
		t.Fatal(err)
	}
	got := base.BodyExecutions()
	if math.Abs(got-orig)/orig > 1e-9 {
		t.Fatalf("tiling changed body executions: %v -> %v", orig, got)
	}
}

func TestCacheTileIdentityForSizeOne(t *testing.T) {
	n := mm(100)
	if err := CacheTile(n, []string{"i", "j", "k"}, []int{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(loopVars(n), []string{"i", "j", "k"}) {
		t.Fatalf("tile size 1 changed the nest: %v", loopVars(n))
	}
}

func TestCacheTileClampsOversizedTile(t *testing.T) {
	n := mm(100)
	// Tile of 2048 exceeds the extent 100: identity.
	if err := CacheTile(n, []string{"i"}, []int{2048}); err != nil {
		t.Fatal(err)
	}
	if len(n.Loops) != 3 {
		t.Fatalf("oversized tile created loops: %v", loopVars(n))
	}
}

func TestCacheTilePartial(t *testing.T) {
	n := mm(2000)
	if err := CacheTile(n, []string{"i", "j", "k"}, []int{1, 256, 1}); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(loopVars(n), []string{"jj", "i", "j", "k"}) {
		t.Fatalf("partial tiling order = %v", loopVars(n))
	}
}

func TestCacheTileErrors(t *testing.T) {
	n := mm(100)
	if CacheTile(n, []string{"i"}, []int{2, 3}) == nil {
		t.Fatal("length mismatch accepted")
	}
	if CacheTile(n, []string{"zz"}, []int{4}) == nil {
		t.Fatal("missing loop accepted")
	}
	if CacheTile(n, []string{"i"}, []int{0}) == nil {
		t.Fatal("tile 0 accepted")
	}
}

func TestDoubleStripMineRejected(t *testing.T) {
	n := mm(1000)
	if _, err := stripMine(n, "i", "ii", 16); err != nil {
		t.Fatal(err)
	}
	if _, err := stripMine(n, "i", "ii", 16); err == nil {
		t.Fatal("double strip-mine of same loop accepted")
	}
}

func TestRegisterTileStructure(t *testing.T) {
	n := mm(2000)
	if err := RegisterTile(n, "i", 4); err != nil {
		t.Fatal(err)
	}
	// Point loop i is now innermost, fully unrolled, register-marked.
	last := n.Loops[len(n.Loops)-1]
	if last.Var != "i" || last.Unroll != 4 || !last.Register {
		t.Fatalf("register point loop wrong: %+v", last)
	}
	if !equalStrings(loopVars(n), []string{"i_b", "j", "k", "i"}) {
		t.Fatalf("register tiling order = %v", loopVars(n))
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("register-tiled nest invalid: %v", err)
	}
}

func TestRegisterTileIdentityForOne(t *testing.T) {
	n := mm(100)
	if err := RegisterTile(n, "i", 1); err != nil {
		t.Fatal(err)
	}
	if len(n.Loops) != 3 {
		t.Fatal("rt=1 changed the nest")
	}
}

func TestRegisterTilePreservesBodyExecutions(t *testing.T) {
	n := mm(512)
	orig := n.BodyExecutions()
	if err := RegisterTile(n, "j", 8); err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.BodyExecutions()-orig)/orig > 1e-9 {
		t.Fatalf("register tiling changed body executions")
	}
}

func TestInterchange(t *testing.T) {
	n := mm(10)
	if err := Interchange(n, 0, 2); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(loopVars(n), []string{"k", "j", "i"}) {
		t.Fatalf("interchange order = %v", loopVars(n))
	}
	if Interchange(n, 0, 9) == nil {
		t.Fatal("out-of-range interchange accepted")
	}
}

func TestApplyFullSpec(t *testing.T) {
	spec := Spec{
		Order:      []string{"i", "j", "k"},
		Unrolls:    Factors{{Var: "k", N: 4}},
		CacheTiles: Factors{{Var: "i", N: 64}, {Var: "j", N: 64}, {Var: "k", N: 64}},
		RegTiles:   Factors{{Var: "i", N: 2}, {Var: "j", N: 2}},
	}
	out, err := Apply(mm(2000), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("applied nest invalid: %v", err)
	}
	// Expect tile loops ii,jj,kk outermost; register loops i,j innermost.
	vars := loopVars(out)
	if vars[0] != "ii" || vars[1] != "jj" || vars[2] != "kk" {
		t.Fatalf("tile loops not outermost: %v", vars)
	}
	lastTwo := vars[len(vars)-2:]
	if !equalStrings(lastTwo, []string{"i", "j"}) {
		t.Fatalf("register loops not innermost: %v", vars)
	}
	for _, v := range lastTwo {
		l := out.Loops[out.LoopIndex(v)]
		if !l.Register || l.Unroll != 2 {
			t.Fatalf("register loop %s not unrolled/marked: %+v", v, l)
		}
	}
	// k retains its explicit unroll.
	if out.Loops[out.LoopIndex("k")].Unroll != 4 {
		t.Fatal("k unroll lost")
	}
}

func TestApplyIdentitySpec(t *testing.T) {
	base := mm(100)
	out, err := Apply(base, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(loopVars(out), loopVars(base)) {
		t.Fatal("identity spec changed the nest")
	}
	// Apply must not mutate its input.
	if _, err := Apply(base, Spec{Unrolls: Factors{{Var: "i", N: 8}}}); err != nil {
		t.Fatal(err)
	}
	if base.Loops[0].Unroll != 1 {
		t.Fatal("Apply mutated its input nest")
	}
}

func TestApplyDoesNotDoubleUnrollRegisterLoops(t *testing.T) {
	spec := Spec{
		Unrolls:  Factors{{Var: "i", N: 16}},
		RegTiles: Factors{{Var: "i", N: 4}},
	}
	out, err := Apply(mm(2000), spec)
	if err != nil {
		t.Fatal(err)
	}
	l := out.Loops[out.LoopIndex("i")]
	if l.Unroll != 4 {
		t.Fatalf("register loop unroll overridden: %d", l.Unroll)
	}
}

func TestApplyPropertyAlwaysValidAndWorkPreserving(t *testing.T) {
	f := func(u1, u2, u3, t1, t2, t3, r1, r2 uint8) bool {
		spec := Spec{
			Order:      []string{"i", "j", "k"},
			Unrolls:    Factors{{Var: "i", N: int(u1%32) + 1}, {Var: "j", N: int(u2%32) + 1}, {Var: "k", N: int(u3%32) + 1}},
			CacheTiles: Factors{{Var: "i", N: 1 << (t1 % 12)}, {Var: "j", N: 1 << (t2 % 12)}, {Var: "k", N: 1 << (t3 % 12)}},
			RegTiles:   Factors{{Var: "i", N: 1 << (r1 % 6)}, {Var: "j", N: 1 << (r2 % 6)}},
		}
		base := mm(2000)
		out, err := Apply(base, spec)
		if err != nil {
			return false
		}
		if out.Validate() != nil {
			return false
		}
		// Total work must be preserved by any transformation combination.
		return math.Abs(out.TotalFlops()-base.TotalFlops())/base.TotalFlops() < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
