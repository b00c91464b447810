package annotate

import (
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/sim"
)

const mmText = `
# Matrix multiply, annotated in the Orio-inspired mini-language.
kernel mm input 2000x2000
size N = 2000
array A[N][N] elem 8
array B[N][N] elem 8
array C[N][N] elem 8

nest mm
loop i = 0 .. N
loop j = 0 .. N
loop k = 0 .. N
stmt C[i][j] += A[i][k] * B[k][j] flops 2

param U_I on i unroll 1..32
param T_I on i tile pow2 0..11
param RT_I on i regtile pow2 0..5
param U_J on j unroll 1..32
param T_J on j tile pow2 0..11
param RT_J on j regtile pow2 0..5
param U_K on k unroll 1..32
param T_K on k tile pow2 0..11
param RT_K on k regtile pow2 0..5
switch SCR
switch VEC
switch OMP
`

const luText = `
kernel lu input 2000x2000
size N = 2000
array A[N][N] elem 8
nest update
loop k = 0 .. N
loop i = k+1 .. N
loop j = k+1 .. N
stmt A[i][j] += A[i][k] * A[k][j] flops 2
param U_K on k unroll 1..16
param T_K on k tile pow2 0..8
param RT_K on k regtile pow2 0..5
param U_I on i unroll 1..16
param T_I on i tile pow2 0..8
param RT_I on i regtile pow2 0..5
param U_J on j unroll 1..16
param T_J on j tile pow2 0..8
param RT_J on j regtile pow2 0..5
`

func TestParseMM(t *testing.T) {
	k, err := Parse(mmText)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "mm" || k.InputSize != "2000x2000" {
		t.Fatalf("header wrong: %s %s", k.Name, k.InputSize)
	}
	if len(k.Nests) != 1 {
		t.Fatalf("%d nests", len(k.Nests))
	}
	if k.Space().NumParams() != 12 {
		t.Fatalf("parsed space has %d params, want 12", k.Space().NumParams())
	}
	if err := k.Nests[0].Validate(); err != nil {
		t.Fatalf("parsed nest invalid: %v", err)
	}
	if got := k.Nests[0].TotalFlops(); got != 2*2000.0*2000*2000 {
		t.Fatalf("flops = %v", got)
	}
}

// TestParsedMMEquivalentToBuiltin: the annotated MM must behave exactly
// like the built-in kernels.MM under the simulator.
func TestParsedMMEquivalentToBuiltin(t *testing.T) {
	parsed, err := Parse(mmText)
	if err != nil {
		t.Fatal(err)
	}
	builtin := kernels.MM(2000)
	if parsed.Space().Size() != builtin.Space().Size() {
		t.Fatalf("space sizes differ: %v vs %v", parsed.Space().Size(), builtin.Space().Size())
	}
	tgt := sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1}
	pp := kernels.NewProblem(parsed, tgt)
	pb := kernels.NewProblem(builtin, tgt)
	r := rng.New(3)
	for i := 0; i < 10; i++ {
		c := builtin.Space().Random(r)
		// Translate by name: both spaces use the same parameter names but
		// possibly different order.
		c2 := parsed.Space().Default()
		for pi := 0; pi < builtin.Space().NumParams(); pi++ {
			name := builtin.Space().Param(pi).Name
			c2[parsed.Space().Index(name)] = c[pi]
		}
		r1, _ := pb.Evaluate(c)
		r2, _ := pp.Evaluate(c2)
		if r1 != r2 {
			t.Fatalf("parsed and builtin MM disagree: %v vs %v", r1, r2)
		}
	}
}

func TestParseTriangularLU(t *testing.T) {
	k, err := Parse(luText)
	if err != nil {
		t.Fatal(err)
	}
	n := k.Nests[0]
	// i's lower bound must be k+1.
	li := n.LoopIndex("i")
	if n.Loops[li].Lower.CoeffOf("k") != 1 || n.Loops[li].Lower.Const != 1 {
		t.Fatalf("triangular bound lost: %v", n.Loops[li].Lower)
	}
	if k.Space().NumParams() != 9 {
		t.Fatalf("LU space has %d params", k.Space().NumParams())
	}
}

func TestParseMultiNest(t *testing.T) {
	text := `
kernel atax input 100
size N = 100
array A[N][N] elem 8
array x[N] elem 8
array t[N] elem 8
array y[N] elem 8
nest first
loop i = 0 .. N
loop j = 0 .. N
stmt t[i] += A[i][j] * x[j] flops 2
param U_I1 on i unroll 1..8
param T_I1 on i tile pow2 0..4
param RT_I1 on i regtile pow2 0..3
nest second
loop i = 0 .. N
loop j = 0 .. N
stmt y[j] += A[i][j] * t[i] flops 2
param U_J2 on j unroll 1..8
param T_J2 on j tile pow2 0..4
param RT_J2 on j regtile pow2 0..3
`
	k, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Nests) != 2 {
		t.Fatalf("%d nests", len(k.Nests))
	}
	c := k.Space().Default()
	c[k.Space().Index("U_J2")] = 3 // unroll 4
	specs := k.SpecsFor(c)
	if specs[1].Unrolls.Get("j") != 4 {
		t.Fatalf("param did not bind to second nest: %v", specs[1].Unrolls)
	}
	if specs[0].Unrolls.Get("j") != 0 && specs[0].Unrolls.Get("j") > 1 {
		t.Fatalf("param leaked into first nest: %v", specs[0].Unrolls)
	}
}

func TestParseExprForms(t *testing.T) {
	e, err := parseExpr("2*i + j - 3")
	if err != nil {
		t.Fatal(err)
	}
	if e.CoeffOf("i") != 2 || e.CoeffOf("j") != 1 || e.Const != -3 {
		t.Fatalf("parsed %v", e)
	}
	e2, err := parseExpr("-i + 5")
	if err != nil {
		t.Fatal(err)
	}
	if e2.CoeffOf("i") != -1 || e2.Const != 5 {
		t.Fatalf("leading minus mishandled: %v", e2)
	}
	if _, err := parseExpr(""); err == nil {
		t.Fatal("empty expression accepted")
	}
	if _, err := parseExpr("i + + j"); err == nil {
		t.Fatal("double operator accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"no kernel", "size N = 10", "missing 'kernel"},
		{"no nest", "kernel x\nloop i = 0 .. 10", "no nest"},
		{"bad directive", "kernel x\nfrobnicate", "unknown directive"},
		{"bad size", "kernel x\nsize N = abc", "bad size"},
		{"undeclared array", `
kernel x
size N = 10
nest n
loop i = 0 .. N
stmt Z[i] = Z[i] flops 1
param U_I on i unroll 1..4
param T_I on i tile pow2 0..2
param RT_I on i regtile pow2 0..2`, "undeclared array"},
		{"tile not pow2", `
kernel x
size N = 10
array A[N] elem 8
nest n
loop i = 0 .. N
stmt A[i] = A[i] flops 1
param U_I on i unroll 1..4
param T_I on i tile 0..2
param RT_I on i regtile pow2 0..2`, "pow2"},
		{"incomplete group", `
kernel x
size N = 10
array A[N] elem 8
nest n
loop i = 0 .. N
stmt A[i] = A[i] flops 1
param U_I on i unroll 1..4`, "needs unroll, tile, and regtile"},
		{"bad switch", "kernel x\nswitch FOO", "unknown switch"},
		{"negative tile exponent", "kernel x\nnest n\nparam T_I on i tile pow2 -1..2", "tile exponents \"-1..2\" outside 0..30"},
		{"regtile exponent past 30", "kernel x\nnest n\nparam RT_I on i regtile pow2 0..31", "regtile exponents \"0..31\" outside 0..30"},
		{"unroll below one", "kernel x\nnest n\nparam U_I on i unroll 0..4", "unroll range \"0..4\" outside 1..1024"},
		{"unroll range too large", "kernel x\nnest n\nparam U_I on i unroll 1..9999999999", "unroll range \"1..9999999999\" outside 1..1024"},
		{"param name mismatch", `
kernel x
size N = 10
array A[N] elem 8
nest n
loop i = 0 .. N
stmt A[i] = A[i] flops 1
param X_I on i unroll 1..4`, "must be named U_"},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil {
			t.Errorf("%s: error expected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCommentsAndBlankLinesIgnored(t *testing.T) {
	if _, err := Parse(mmText + "\n# trailing comment\n\n"); err != nil {
		t.Fatal(err)
	}
}

func TestStepParsed(t *testing.T) {
	text := `
kernel strided
size N = 64
array A[N] elem 8
nest n
loop i = 0 .. N step 2
stmt A[i] = A[i] flops 1
param U_I on i unroll 1..4
param T_I on i tile pow2 0..3
param RT_I on i regtile pow2 0..2
`
	k, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if k.Nests[0].Loops[0].Step != 2 {
		t.Fatalf("step = %v", k.Nests[0].Loops[0].Step)
	}
	if tc := k.Nests[0].TripCount(0); tc != 32 {
		t.Fatalf("strided trip = %v", tc)
	}
}

// TestDerivedLoopNameCollisionRefused: tiling loop i derives loops ii
// (cache tile) and i_b (register tile), so an annotation that already
// names a loop that way cannot be transformed. Parse must refuse it;
// a kernel that got through would panic on the first tiled evaluation.
func TestDerivedLoopNameCollisionRefused(t *testing.T) {
	for _, tc := range []struct{ name, clash, param string }{
		{"cache tile", "ii", "T_I"},
		{"register tile", "i_b", "RT_I"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			text := `
kernel clash
size N = 2000
array A[N][N] elem 8
nest clash
loop i = 0 .. N
loop ` + tc.clash + ` = 0 .. N
stmt A[i][` + tc.clash + `] += A[` + tc.clash + `][i] flops 1
param U_I on i unroll 1..4
param T_I on i tile pow2 0..6
param RT_I on i regtile pow2 0..3
`
			k, err := Parse(text)
			if err == nil {
				p := kernels.NewProblem(k, sim.Target{Machine: machine.Sandybridge, Compiler: machine.GNU, Threads: 1})
				c := k.Space().Default()
				i := k.Space().Index(tc.param)
				c[i] = k.Space().Param(i).Levels() - 1
				p.Evaluate(c)
				t.Fatalf("loop %q accepted next to tunable loop i", tc.clash)
			}
			if !strings.Contains(err.Error(), `"`+tc.clash+`"`) {
				t.Fatalf("error does not name the colliding loop: %v", err)
			}
		})
	}
}
