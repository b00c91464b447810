package codegen

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/transform"
)

func mmNest() *ir.Nest {
	return kernels.MM(64).Nests[0].Clone()
}

func emit(t *testing.T, n *ir.Nest, opt Options) string {
	t.Helper()
	src, err := Emit(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !balanced(src) {
		t.Fatalf("unbalanced braces in generated code:\n%s", src)
	}
	return src
}

func balanced(src string) bool {
	depth := 0
	for _, r := range src {
		switch r {
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}

func TestPlainNest(t *testing.T) {
	src := emit(t, mmNest(), Options{})
	for _, want := range []string{
		"void mm(int N, double A[][N], double B[][N], double C[][N])",
		"int i, j, k;",
		"for (i = 0; i < N; i += 1)",
		"C[i][j] += A[i][k] * B[k][j];",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("generated code missing %q:\n%s", want, src)
		}
	}
	// Plain nest: exactly three for loops, one body statement.
	if strings.Count(src, "for (") != 3 {
		t.Fatalf("expected 3 loops:\n%s", src)
	}
}

func TestUnrolledLoopHasMainAndRemainder(t *testing.T) {
	n := mmNest()
	if err := transform.Unroll(n, "k", 4); err != nil {
		t.Fatal(err)
	}
	src := emit(t, n, Options{})
	if !strings.Contains(src, "k += 4") {
		t.Fatalf("no unrolled stride:\n%s", src)
	}
	if !strings.Contains(src, "remainder") {
		t.Fatalf("no remainder loop:\n%s", src)
	}
	// Four body copies in the main loop + one in the remainder.
	if got := strings.Count(src, "C[i][j] +="); got != 5 {
		t.Fatalf("expected 5 body copies, got %d:\n%s", got, src)
	}
	// Offset copies must reference k + 1 .. k + 3.
	for _, want := range []string{"k + 1", "k + 2", "k + 3"} {
		if !strings.Contains(src, want) {
			t.Fatalf("missing unroll offset %q:\n%s", want, src)
		}
	}
}

func TestTiledLoopsClamp(t *testing.T) {
	n := mmNest()
	if err := transform.CacheTile(n, []string{"i", "j"}, []int{16, 16}); err != nil {
		t.Fatal(err)
	}
	src := emit(t, n, Options{})
	if !strings.Contains(src, "ii += 16") || !strings.Contains(src, "jj += 16") {
		t.Fatalf("tile loops missing:\n%s", src)
	}
	// Point loops must clamp against the original bound.
	if !strings.Contains(src, "MIN(ii + 16, N)") {
		t.Fatalf("point loop not clamped:\n%s", src)
	}
}

func TestRegisterBlockFullyUnrolled(t *testing.T) {
	n := mmNest()
	if err := transform.RegisterTile(n, "i", 2); err != nil {
		t.Fatal(err)
	}
	if err := transform.RegisterTile(n, "j", 2); err != nil {
		t.Fatal(err)
	}
	src := emit(t, n, Options{})
	// The register block is a 2x2 unroll: 4 body copies, no i/j loops in
	// the innermost position (only i_b, j_b, k remain as loops).
	if got := strings.Count(src, "] +="); got != 4 {
		t.Fatalf("expected 4 blocked body copies, got %d:\n%s", got, src)
	}
	// The point variables are substituted by their block base + offset.
	for _, want := range []string{"C[i_b][j_b]", "C[i_b + 1][j_b + 1]", "A[i_b + 1][k]"} {
		if !strings.Contains(src, want) {
			t.Fatalf("blocked reference %q missing:\n%s", want, src)
		}
	}
	// The dead point variables must not appear in the body references.
	if strings.Contains(src, "C[i]") || strings.Contains(src, "[j]") {
		t.Fatalf("unsubstituted point variable in block:\n%s", src)
	}
	if strings.Count(src, "for (") != 3 {
		t.Fatalf("register loops must not emit for statements:\n%s", src)
	}
}

func TestScalarReplacementLoadsAndStores(t *testing.T) {
	n := mmNest()
	if err := transform.RegisterTile(n, "i", 2); err != nil {
		t.Fatal(err)
	}
	src := emit(t, n, Options{ScalarReplace: true})
	if !strings.Contains(src, "double s0") {
		t.Fatalf("no scalar declarations:\n%s", src)
	}
	// Loads before the block and stores after it for the written refs.
	if !strings.Contains(src, "s0 = C[") && !strings.Contains(src, "s0 = A[") {
		t.Fatalf("no scalar loads:\n%s", src)
	}
	if !strings.Contains(src, "] = s") {
		t.Fatalf("no scalar stores:\n%s", src)
	}
	// The blocked body must reference scalars, not arrays.
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "s") && strings.Contains(trimmed, "+=") {
			if strings.Contains(trimmed, "[") {
				t.Fatalf("blocked statement still references arrays: %q", trimmed)
			}
		}
	}
}

func TestOpenMPPragma(t *testing.T) {
	src := emit(t, mmNest(), Options{OpenMP: true})
	if !strings.Contains(src, "#pragma omp parallel for private(j, k)") {
		t.Fatalf("OpenMP pragma missing or wrong:\n%s", src)
	}
}

func TestVectorPragmaOnInnermost(t *testing.T) {
	src := emit(t, mmNest(), Options{VectorHint: true})
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if strings.Contains(l, "#pragma ivdep") {
			if !strings.Contains(lines[i+1], "for (k") {
				t.Fatalf("ivdep not on the innermost loop:\n%s", src)
			}
			return
		}
	}
	t.Fatalf("ivdep pragma missing:\n%s", src)
}

func TestTriangularBoundsRendered(t *testing.T) {
	lu := kernels.LU(64).Nests[0].Clone()
	src := emit(t, lu, Options{})
	if !strings.Contains(src, "for (i = k + 1; i < N") {
		t.Fatalf("triangular lower bound lost:\n%s", src)
	}
}

func TestFullSpecEmits(t *testing.T) {
	spec := transform.Spec{
		Order:      []string{"i", "j", "k"},
		Unrolls:    transform.Factors{{Var: "k", N: 2}},
		CacheTiles: transform.Factors{{Var: "i", N: 8}, {Var: "j", N: 8}, {Var: "k", N: 8}},
		RegTiles:   transform.Factors{{Var: "i", N: 2}, {Var: "j", N: 2}},
	}
	n, err := transform.Apply(mmNest(), spec)
	if err != nil {
		t.Fatal(err)
	}
	src := emit(t, n, Options{ScalarReplace: true, OpenMP: true})
	for _, want := range []string{"ii += 8", "jj += 8", "kk += 8", "double s0", "#pragma omp"} {
		if !strings.Contains(src, want) {
			t.Fatalf("full-spec code missing %q:\n%s", want, src)
		}
	}
}

func TestEmitRejectsInvalidNest(t *testing.T) {
	n := mmNest()
	n.Loops[0].Step = 0
	if _, err := Emit(n, Options{}); err == nil {
		t.Fatal("invalid nest accepted")
	}
}

func TestPreamble(t *testing.T) {
	if !strings.Contains(Preamble(), "#define MIN") {
		t.Fatal("preamble missing MIN macro")
	}
}

func TestFuncNameOverride(t *testing.T) {
	src := emit(t, mmNest(), Options{FuncName: "mm_variant_17"})
	if !strings.Contains(src, "void mm_variant_17(") {
		t.Fatalf("function name override ignored:\n%s", src)
	}
}

func TestCExprRendering(t *testing.T) {
	e := ir.Sym("i", 2).Add(ir.Sym("j", -1)).AddConst(3)
	got := cExpr(e)
	if got != "2*i - j + 3" {
		t.Fatalf("cExpr = %q", got)
	}
	if cExpr(ir.Constant(0)) != "0" {
		t.Fatalf("zero renders as %q", cExpr(ir.Constant(0)))
	}
}
