// Package codegen emits compilable C code for a transformed kernel
// variant — the artifact Orio's code generator produces for each point
// of the search space. The emitter handles the full transformation
// vocabulary: strip-mined tile loops with boundary clamping, unrolled
// loops with remainder ("epilogue") loops, register-tiled loops fully
// unrolled into the body with scalar replacement of the blocked
// references, and optional OpenMP and ivdep/simd pragmas.
//
// The generated code is used by cmd/autotune -emit to show the winning
// variant, and by the test suite to check that the transformations the
// cost model reasons about correspond to real code shapes.
//
// Boundary clamping is exact for rectangular nests. For triangular nests
// combined with tiling the emission is best-effort: a hoisted tile
// loop's bound may reference a point variable that C scoping declares
// later (real Orio restricts its tiling module to rectangular loops for
// the same reason).
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Options configures code emission.
type Options struct {
	// OpenMP emits "#pragma omp parallel for" on the outermost
	// parallelizable loop.
	OpenMP bool
	// VectorHint emits "#pragma ivdep" on the innermost loop.
	VectorHint bool
	// ScalarReplace introduces named scalar temporaries for register-
	// blocked references (otherwise the unrolled body repeats the array
	// expressions and the compiler is trusted to clean up).
	ScalarReplace bool
	// FuncName names the emitted function (default: the nest's name).
	FuncName string
}

// Emit renders the nest as a C function. The nest should already be
// transformed (internal/transform); untransformed nests emit the plain
// reference loops.
func Emit(n *ir.Nest, opt Options) (string, error) {
	if err := n.Validate(); err != nil {
		return "", fmt.Errorf("codegen: %w", err)
	}
	g := &generator{nest: n, opt: opt}
	return g.run()
}

type generator struct {
	nest *ir.Nest
	opt  Options
	b    strings.Builder
	ind  int
}

func (g *generator) line(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("  ", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) run() (string, error) {
	n := g.nest
	name := g.opt.FuncName
	if name == "" {
		name = n.Name
	}

	// Signature: arrays as double pointers-to-VLA, sizes as ints.
	sizes := sortedSizeNames(n)
	var params []string
	for _, s := range sizes {
		params = append(params, "int "+s)
	}
	for _, a := range sortedArrayNames(n) {
		arr := n.Arrays[a]
		dims := ""
		for i, d := range arr.Dims {
			if i == 0 {
				continue // first dimension decays
			}
			dims += "[" + cExpr(d) + "]"
		}
		params = append(params, fmt.Sprintf("double %s[]%s", a, dims))
	}
	g.line("void %s(%s) {", name, strings.Join(params, ", "))
	g.ind++

	// Declare loop variables.
	var vars []string
	for _, l := range n.Loops {
		vars = append(vars, l.Var)
	}
	if len(vars) > 0 {
		g.line("int %s;", strings.Join(vars, ", "))
	}

	if err := g.loops(0); err != nil {
		return "", err
	}

	g.ind--
	g.line("}")
	return g.b.String(), nil
}

// loops emits loop level i and everything inside it.
func (g *generator) loops(i int) error {
	n := g.nest
	if i == len(n.Loops) {
		g.body(nil)
		return nil
	}
	l := n.Loops[i]

	if l.Register {
		// Register loops are fully unrolled into the body together with
		// any deeper register loops; gather them and emit the block.
		return g.registerBlock(i)
	}

	if i == 0 && g.opt.OpenMP {
		g.line("#pragma omp parallel for private(%s)", strings.Join(innerVars(n, i+1), ", "))
	}
	if g.opt.VectorHint && g.innermostPlain(i) {
		g.line("#pragma ivdep")
	}

	lo := cExpr(l.Lower)
	hi := cExpr(l.Upper)
	step := int(l.Step)

	if l.Unroll > 1 {
		// Unrolled main loop plus remainder loop.
		stride := step * l.Unroll
		g.line("for (%s = %s; %s + %d <= %s; %s += %d) {", l.Var, lo, l.Var, stride-1, hi, l.Var, stride)
		g.ind++
		for u := 0; u < l.Unroll; u++ {
			g.withOffset(l.Var, u*step, func() error { return g.loops(i + 1) })
		}
		g.ind--
		g.line("}")
		g.line("for (; %s < %s; %s += %d) {  /* remainder */", l.Var, hi, l.Var, step)
		g.ind++
		if err := g.loops(i + 1); err != nil {
			return err
		}
		g.ind--
		g.line("}")
		return nil
	}

	// Tile point loops are clamped against the original bound so partial
	// tiles at the edge stay correct. A point loop is recognized by a
	// lower bound that references another loop variable introduced by
	// strip-mining (upper = lower + tile).
	upper := hi
	if orig := g.clampBound(l); orig != "" {
		upper = fmt.Sprintf("MIN(%s, %s)", hi, orig)
	}
	g.line("for (%s = %s; %s < %s; %s += %d) {", l.Var, lo, l.Var, upper, l.Var, step)
	g.ind++
	if err := g.loops(i + 1); err != nil {
		return err
	}
	g.ind--
	g.line("}")
	return nil
}

// clampBound returns the original iteration bound a strip-mined point
// loop must also respect, or "" when no clamping is needed.
func (g *generator) clampBound(l ir.Loop) string {
	// A point loop's upper bound is lower + tile (both reference the
	// tile variable). The tile loop's own upper bound is the original
	// extent; clamp against it.
	for _, t := range l.Upper.Terms {
		for _, outer := range g.nest.Loops {
			if outer.Var == t.Sym {
				return cExpr(outer.Upper)
			}
		}
	}
	return ""
}

// registerBlock emits the fully unrolled register-tile block starting at
// loop i (all remaining loops are register loops by construction).
func (g *generator) registerBlock(i int) error {
	n := g.nest
	regLoops := n.Loops[i:]
	for _, l := range regLoops {
		if !l.Register {
			return fmt.Errorf("codegen: non-register loop %q inside register block", l.Var)
		}
	}
	offsets := make([]int, len(regLoops))
	env := &bodyEnv{scalars: map[string]*scalarInfo{}}

	var emit func(d int) error
	emit = func(d int) error {
		if d == len(regLoops) {
			env.subs = map[string]ir.Expr{}
			for k, l := range regLoops {
				// The point variable equals its lower bound (the block
				// base) plus the unroll offset.
				env.subs[l.Var] = l.Lower.AddConst(float64(offsets[k]) * l.Step)
			}
			g.body(env)
			return nil
		}
		for u := 0; u < regLoops[d].Unroll; u++ {
			offsets[d] = u
			if err := emit(d + 1); err != nil {
				return err
			}
		}
		return nil
	}

	if !g.opt.ScalarReplace {
		return emit(0)
	}

	// Scalar replacement: a dry pass collects the blocked references and
	// their scalar names, then the real emission wraps the block in
	// loads and stores (what Orio's scalar-replacement module generates).
	var trash strings.Builder
	saved := g.b
	g.b = trash
	if err := emit(0); err != nil {
		g.b = saved
		return err
	}
	g.b = saved

	names := make([]string, 0, len(env.order))
	for _, expr := range env.order {
		names = append(names, env.scalars[expr].name)
	}
	if len(names) > 0 {
		g.line("double %s;", strings.Join(names, ", "))
	}
	for _, expr := range env.order {
		if info := env.scalars[expr]; info.read {
			g.line("%s = %s;", info.name, expr)
		}
	}
	if err := emit(0); err != nil {
		return err
	}
	for _, expr := range env.order {
		if info := env.scalars[expr]; info.write {
			g.line("%s = %s;", expr, info.name)
		}
	}
	return nil
}

// scalarInfo tracks one register-blocked reference's scalar temporary.
type scalarInfo struct {
	name        string
	read, write bool
}

// bodyEnv carries variable substitutions and scalar-replacement state
// into the body emitter.
type bodyEnv struct {
	subs    map[string]ir.Expr
	scalars map[string]*scalarInfo
	order   []string
}

// body emits the statement bodies with the environment's offsets.
func (g *generator) body(env *bodyEnv) {
	for _, s := range g.nest.Body {
		g.line("%s;", renderStmt(s, env, g.opt.ScalarReplace))
	}
}

// renderStmt renders one statement as "write = write op reads".
func renderStmt(s ir.Stmt, env *bodyEnv, scalarReplace bool) string {
	var write string
	var reads []string
	for _, r := range s.Refs {
		txt := renderRef(r, env, scalarReplace)
		if r.Write && write == "" {
			write = txt
		} else {
			reads = append(reads, txt)
		}
	}
	if write == "" {
		// Pure-read statement (unusual): accumulate into a sink.
		return "sink += " + strings.Join(reads, " * ")
	}
	if len(reads) == 0 {
		return write + " = " + write
	}
	return write + " += " + strings.Join(reads, " * ")
}

// renderRef renders an array reference, applying loop-variable offsets
// and optional scalar replacement.
func renderRef(r ir.Ref, env *bodyEnv, scalarReplace bool) string {
	var idx []string
	for _, e := range r.Index {
		idx = append(idx, cExprOffset(e, env))
	}
	expr := r.Array + "[" + strings.Join(idx, "][") + "]"
	if scalarReplace && env != nil && env.scalars != nil {
		info, ok := env.scalars[expr]
		if !ok {
			info = &scalarInfo{name: fmt.Sprintf("s%d", len(env.scalars))}
			env.scalars[expr] = info
			env.order = append(env.order, expr)
		}
		if r.Write {
			info.write = true
			info.read = true // += targets are read-modify-write
		} else {
			info.read = true
		}
		return info.name
	}
	return expr
}

// cExpr renders an affine expression in C syntax.
func cExpr(e ir.Expr) string { return cExprOffset(e, nil) }

func cExprOffset(e ir.Expr, env *bodyEnv) string {
	if env != nil {
		for v, repl := range env.subs {
			e = e.Substitute(v, repl)
		}
	}
	var parts []string
	for _, t := range e.Terms {
		switch v, c := t.Sym, t.Coeff; c {
		case 1:
			parts = append(parts, v)
		case -1:
			parts = append(parts, "-"+v)
		default:
			parts = append(parts, fmt.Sprintf("%g*%s", c, v))
		}
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%g", e.Const))
	}
	out := strings.Join(parts, " + ")
	return strings.ReplaceAll(out, "+ -", "- ")
}

// innermostPlain reports whether loop i is the innermost non-register
// loop (where a vector pragma belongs).
func (g *generator) innermostPlain(i int) bool {
	for j := i + 1; j < len(g.nest.Loops); j++ {
		if !g.nest.Loops[j].Register {
			return false
		}
	}
	return true
}

// withOffset emits inner levels with the loop variable offset by a
// constant (used when unrolling non-register loops).
func (g *generator) withOffset(v string, off int, emit func() error) {
	if off == 0 {
		emit() //nolint:errcheck // structural emission cannot fail mid-way
		return
	}
	// Substitute v -> v + off in the inner emission by rewriting a
	// cloned sub-nest. Cloning per unroll copy is simple and safe.
	saved := g.nest
	clone := saved.Clone()
	for li := range clone.Loops {
		clone.Loops[li].Lower = clone.Loops[li].Lower.Substitute(v, ir.Sym(v, 1).AddConst(float64(off)))
		clone.Loops[li].Upper = clone.Loops[li].Upper.Substitute(v, ir.Sym(v, 1).AddConst(float64(off)))
	}
	for si := range clone.Body {
		for ri := range clone.Body[si].Refs {
			for ii := range clone.Body[si].Refs[ri].Index {
				e := clone.Body[si].Refs[ri].Index[ii]
				clone.Body[si].Refs[ri].Index[ii] = e.Substitute(v, ir.Sym(v, 1).AddConst(float64(off)))
			}
		}
	}
	g.nest = clone
	emit() //nolint:errcheck
	g.nest = saved
}

// innerVars lists the loop variables at depth >= i (the OpenMP private
// clause).
func innerVars(n *ir.Nest, i int) []string {
	var out []string
	for _, l := range n.Loops[i:] {
		out = append(out, l.Var)
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// Preamble returns the helper macros the generated code relies on.
func Preamble() string {
	return "#ifndef MIN\n#define MIN(a, b) ((a) < (b) ? (a) : (b))\n#endif\n"
}

func sortedArrayNames(n *ir.Nest) []string {
	names := make([]string, 0, len(n.Arrays))
	for a := range n.Arrays {
		names = append(names, a)
	}
	sort.Strings(names)
	return names
}

func sortedSizeNames(n *ir.Nest) []string {
	names := make([]string, 0, len(n.Sizes))
	for s := range n.Sizes {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}
