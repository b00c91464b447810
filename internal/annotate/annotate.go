// Package annotate implements an Orio-inspired annotation language: a
// textual description of a compute kernel (loop nests, affine array
// references, flop counts) together with its tunable transformation
// parameters. Orio consumes annotated C and generates code variants; our
// front end consumes annotated kernel text and produces a
// kernels.Kernel, whose variants the simulator then costs.
//
// The grammar, line-oriented with '#' comments:
//
//	kernel  <name> [input <desc>]
//	size    <sym> = <number>
//	array   <name>[<expr>]...[<expr>] elem <bytes>
//	nest    <name>                       # starts a new loop nest
//	loop    <var> = <expr> .. <expr> [step <n>]
//	stmt    <ref> (=|+=) <ref> [* <ref>] ... flops <n>
//	param   <suffix> on <var> unroll <lo>..<hi>
//	param   <suffix> on <var> tile pow2 <lo>..<hi>
//	param   <suffix> on <var> regtile pow2 <lo>..<hi>
//	switch  SCR|VEC|OMP
//
// Index and bound expressions are affine: number, sym, n*sym, joined
// with + and -.
package annotate

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/space"
)

// Parse parses annotated kernel text into a tunable kernel.
func Parse(text string) (*kernels.Kernel, error) {
	p := &parser{
		sizes:  map[string]float64{},
		arrays: map[string]ir.Array{},
	}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("annotate: line %d: %w", lineNo+1, err)
		}
	}
	return p.finish()
}

type paramDecl struct {
	suffix  string
	nest    int
	loopVar string
	kind    string // "unroll", "tile", "regtile"
	lo, hi  int
}

type parser struct {
	name      string
	inputSize string
	sizes     map[string]float64
	arrays    map[string]ir.Array
	nests     []*ir.Nest
	params    []paramDecl
	switches  map[string]bool
}

func (p *parser) currentNest() (*ir.Nest, error) {
	if len(p.nests) == 0 {
		return nil, fmt.Errorf("no nest declared (use 'nest <name>' or declare loops after 'kernel')")
	}
	return p.nests[len(p.nests)-1], nil
}

func (p *parser) line(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "kernel":
		if len(fields) < 2 {
			return fmt.Errorf("kernel needs a name")
		}
		p.name = fields[1]
		if len(fields) >= 4 && fields[2] == "input" {
			p.inputSize = strings.Join(fields[3:], " ")
		}
		return nil
	case "size":
		// size N = 2000
		if len(fields) != 4 || fields[2] != "=" {
			return fmt.Errorf("size syntax: size <sym> = <number>")
		}
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return fmt.Errorf("bad size value %q", fields[3])
		}
		p.sizes[fields[1]] = v
		return nil
	case "array":
		return p.arrayDecl(fields[1:])
	case "nest":
		if len(fields) != 2 {
			return fmt.Errorf("nest needs a name")
		}
		p.nests = append(p.nests, &ir.Nest{
			Name:   fields[1],
			Arrays: map[string]ir.Array{},
			Sizes:  p.sizes,
		})
		return nil
	case "loop":
		return p.loopDecl(strings.TrimSpace(strings.TrimPrefix(line, "loop")))
	case "stmt":
		return p.stmtDecl(strings.TrimSpace(strings.TrimPrefix(line, "stmt")))
	case "param":
		return p.paramDecl(fields[1:])
	case "switch":
		if len(fields) != 2 {
			return fmt.Errorf("switch syntax: switch SCR|VEC|OMP")
		}
		switch fields[1] {
		case "SCR", "VEC", "OMP":
			if p.switches == nil {
				p.switches = map[string]bool{}
			}
			p.switches[fields[1]] = true
			return nil
		default:
			return fmt.Errorf("unknown switch %q", fields[1])
		}
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

// arrayDecl parses: A[N][N] elem 8
func (p *parser) arrayDecl(fields []string) error {
	if len(fields) != 3 || fields[1] != "elem" {
		return fmt.Errorf("array syntax: array <name>[dims] elem <bytes>")
	}
	decl := fields[0]
	open := strings.IndexByte(decl, '[')
	if open <= 0 {
		return fmt.Errorf("array %q needs dimensions", decl)
	}
	name := decl[:open]
	dims, err := parseIndices(decl[open:])
	if err != nil {
		return err
	}
	elem, err := strconv.Atoi(fields[2])
	if err != nil || elem <= 0 {
		return fmt.Errorf("bad element size %q", fields[2])
	}
	p.arrays[name] = ir.Array{Name: name, Dims: dims, ElemSize: elem}
	return nil
}

// loopDecl parses: i = 0 .. N [step 2]
func (p *parser) loopDecl(rest string) error {
	n, err := p.currentNest()
	if err != nil {
		return err
	}
	eq := strings.Index(rest, "=")
	if eq < 0 {
		return fmt.Errorf("loop syntax: loop <var> = <lo> .. <hi> [step n]")
	}
	v := strings.TrimSpace(rest[:eq])
	bounds := strings.TrimSpace(rest[eq+1:])
	step := 1.0
	if si := strings.Index(bounds, "step"); si >= 0 {
		sv, err := strconv.ParseFloat(strings.TrimSpace(bounds[si+4:]), 64)
		if err != nil || sv <= 0 {
			return fmt.Errorf("bad step in %q", bounds)
		}
		step = sv
		bounds = strings.TrimSpace(bounds[:si])
	}
	parts := strings.Split(bounds, "..")
	if len(parts) != 2 {
		return fmt.Errorf("loop bounds need '..' in %q", bounds)
	}
	lo, err := parseExpr(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	hi, err := parseExpr(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	n.Loops = append(n.Loops, ir.Loop{Var: v, Lower: lo, Upper: hi, Step: step, Unroll: 1})
	return nil
}

// stmtDecl parses: C[i][j] += A[i][k] * B[k][j] flops 2
func (p *parser) stmtDecl(rest string) error {
	n, err := p.currentNest()
	if err != nil {
		return err
	}
	flops := 0.0
	if fi := strings.LastIndex(rest, "flops"); fi >= 0 {
		fv, err := strconv.ParseFloat(strings.TrimSpace(rest[fi+5:]), 64)
		if err != nil || fv < 0 {
			return fmt.Errorf("bad flops count in %q", rest)
		}
		flops = fv
		rest = strings.TrimSpace(rest[:fi])
	}

	var writeRefs, readRefs []string
	var rhs string
	switch {
	case strings.Contains(rest, "+="):
		parts := strings.SplitN(rest, "+=", 2)
		// The += target is both read and written.
		writeRefs = append(writeRefs, strings.TrimSpace(parts[0]))
		rhs = parts[1]
	case strings.Contains(rest, "="):
		parts := strings.SplitN(rest, "=", 2)
		writeRefs = append(writeRefs, strings.TrimSpace(parts[0]))
		rhs = parts[1]
	default:
		return fmt.Errorf("statement needs = or += : %q", rest)
	}
	for _, tok := range strings.FieldsFunc(rhs, func(r rune) bool {
		return r == '*' || r == '+' || r == '-' || r == ' ' || r == '/'
	}) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if !strings.Contains(tok, "[") {
			continue // scalar constant or literal
		}
		readRefs = append(readRefs, tok)
	}

	stmt := ir.Stmt{Flops: flops}
	for _, rs := range writeRefs {
		ref, err := p.parseRef(rs, true)
		if err != nil {
			return err
		}
		stmt.Refs = append(stmt.Refs, ref)
	}
	for _, rs := range readRefs {
		ref, err := p.parseRef(rs, false)
		if err != nil {
			return err
		}
		stmt.Refs = append(stmt.Refs, ref)
	}
	// Register referenced arrays with the nest.
	for _, r := range stmt.Refs {
		a, ok := p.arrays[r.Array]
		if !ok {
			return fmt.Errorf("reference to undeclared array %q", r.Array)
		}
		n.Arrays[r.Array] = a
	}
	n.Body = append(n.Body, stmt)
	return nil
}

func (p *parser) parseRef(s string, write bool) (ir.Ref, error) {
	open := strings.IndexByte(s, '[')
	if open <= 0 {
		return ir.Ref{}, fmt.Errorf("bad reference %q", s)
	}
	name := s[:open]
	idx, err := parseIndices(s[open:])
	if err != nil {
		return ir.Ref{}, err
	}
	return ir.Ref{Array: name, Index: idx, Write: write}, nil
}

// maxUnroll bounds the level table an unroll parameter allocates (the
// built-in kernels stop at 32). The transformations refuse a factor
// below 1, so no level may hold one either.
const maxUnroll = 1024

// paramDecl parses: U_I on i unroll 1..32 | T_I on i tile pow2 0..11 |
// RT_I on i regtile pow2 0..5
func (p *parser) paramDecl(fields []string) error {
	if len(fields) < 5 || fields[1] != "on" {
		return fmt.Errorf("param syntax: param <name> on <var> unroll|tile|regtile [pow2] lo..hi")
	}
	name := fields[0]
	loopVar := fields[2]
	kind := fields[3]
	rangeStr := fields[len(fields)-1]
	pow2 := len(fields) == 6 && fields[4] == "pow2"

	parts := strings.Split(rangeStr, "..")
	if len(parts) != 2 {
		return fmt.Errorf("param range needs lo..hi, got %q", rangeStr)
	}
	lo, err1 := strconv.Atoi(parts[0])
	hi, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("bad param range %q", rangeStr)
	}

	var suffix string
	switch kind {
	case "unroll":
		if !strings.HasPrefix(name, "U_") {
			return fmt.Errorf("unroll parameter %q must be named U_<suffix>", name)
		}
		suffix = strings.TrimPrefix(name, "U_")
		if pow2 {
			return fmt.Errorf("unroll ranges are linear, not pow2")
		}
		if lo < 1 || hi > maxUnroll {
			return fmt.Errorf("unroll range %q outside 1..%d", rangeStr, maxUnroll)
		}
	case "tile":
		if !strings.HasPrefix(name, "T_") {
			return fmt.Errorf("tile parameter %q must be named T_<suffix>", name)
		}
		suffix = strings.TrimPrefix(name, "T_")
		if !pow2 {
			return fmt.Errorf("tile ranges must be pow2 (Table I)")
		}
	case "regtile":
		if !strings.HasPrefix(name, "RT_") {
			return fmt.Errorf("regtile parameter %q must be named RT_<suffix>", name)
		}
		suffix = strings.TrimPrefix(name, "RT_")
		if !pow2 {
			return fmt.Errorf("regtile ranges must be pow2 (Table I)")
		}
	default:
		return fmt.Errorf("unknown param kind %q", kind)
	}
	if pow2 && (lo < 0 || hi > space.MaxPow2Exp) {
		return fmt.Errorf("%s exponents %q outside 0..%d", kind, rangeStr, space.MaxPow2Exp)
	}

	nestIdx := len(p.nests) - 1
	if nestIdx < 0 {
		return fmt.Errorf("param before any nest")
	}
	p.params = append(p.params, paramDecl{
		suffix: suffix, nest: nestIdx, loopVar: loopVar, kind: kind, lo: lo, hi: hi,
	})
	return nil
}

// finish assembles the parsed pieces into a Kernel.
func (p *parser) finish() (*kernels.Kernel, error) {
	if p.name == "" {
		return nil, fmt.Errorf("annotate: missing 'kernel <name>' directive")
	}
	if len(p.nests) == 0 {
		return nil, fmt.Errorf("annotate: no loop nest declared")
	}

	// Group the three transformation parameters per suffix.
	type group struct {
		nest     int
		loopVar  string
		u, t, rt *paramDecl
		order    int
	}
	groups := map[string]*group{}
	var suffixOrder []string
	for i := range p.params {
		d := &p.params[i]
		g, ok := groups[d.suffix]
		if !ok {
			g = &group{nest: d.nest, loopVar: d.loopVar, order: len(suffixOrder)}
			groups[d.suffix] = g
			suffixOrder = append(suffixOrder, d.suffix)
		}
		if g.nest != d.nest || g.loopVar != d.loopVar {
			return nil, fmt.Errorf("annotate: suffix %s bound to two different loops", d.suffix)
		}
		switch d.kind {
		case "unroll":
			g.u = d
		case "tile":
			g.t = d
		case "regtile":
			g.rt = d
		}
	}

	var params []space.Param
	var bindings []kernels.Binding
	for _, suffix := range suffixOrder {
		g := groups[suffix]
		if g.u == nil || g.t == nil || g.rt == nil {
			return nil, fmt.Errorf("annotate: suffix %s needs unroll, tile, and regtile parameters", suffix)
		}
		params = append(params,
			space.NewIntRange("U_"+suffix, g.u.lo, g.u.hi),
		)
		bindings = append(bindings, kernels.Binding{Nest: g.nest, Var: g.loopVar, Suffix: suffix})
	}
	// Keep SPAPT's customary ordering: all unrolls, then tiles, then
	// register tiles, then switches.
	for _, suffix := range suffixOrder {
		g := groups[suffix]
		params = append(params, space.NewPowerOfTwo("T_"+suffix, g.t.lo, g.t.hi))
	}
	for _, suffix := range suffixOrder {
		g := groups[suffix]
		params = append(params, space.NewPowerOfTwo("RT_"+suffix, g.rt.lo, g.rt.hi))
	}
	for _, sw := range []string{"SCR", "VEC", "OMP"} {
		if p.switches[sw] {
			params = append(params, space.NewBoolean(sw))
		}
	}

	if err := checkDerivedNames(p.nests, bindings); err != nil {
		return nil, err
	}

	spc := space.New(params...)
	inputSize := p.inputSize
	if inputSize == "" {
		inputSize = "unspecified"
	}
	return kernels.Custom(p.name, inputSize, p.nests, spc, bindings,
		p.switches["SCR"], p.switches["VEC"], p.switches["OMP"])
}

// checkDerivedNames refuses nests the transformations cannot apply to.
// Cache tiling loop v adds a loop v+v and register tiling adds v+"_b",
// so no loop may already carry a name a tunable loop derives, and no two
// derived names may coincide. Each tunable loop can add two loops, and
// the cost model analyzes at most cache.MaxLoops.
func checkDerivedNames(nests []*ir.Nest, bindings []kernels.Binding) error {
	for ni, n := range nests {
		derivedBy := map[string]string{}
		for _, b := range bindings {
			if b.Nest != ni {
				continue
			}
			for _, d := range []string{b.Var + b.Var, b.Var + "_b"} {
				if n.LoopIndex(d) >= 0 {
					return fmt.Errorf("annotate: nest %s: loop %q collides with the loop tiling %q derives; rename it", n.Name, d, b.Var)
				}
				if v, dup := derivedBy[d]; dup {
					return fmt.Errorf("annotate: nest %s: tiling loops %q and %q both derive a loop %q; rename one", n.Name, v, b.Var, d)
				}
				derivedBy[d] = b.Var
			}
		}
		if most := len(n.Loops) + len(derivedBy); most > cache.MaxLoops {
			return fmt.Errorf("annotate: nest %s: %d loops after tiling, at most %d supported", n.Name, most, cache.MaxLoops)
		}
	}
	return nil
}

// parseIndices parses "[e1][e2]..." into expressions.
func parseIndices(s string) ([]ir.Expr, error) {
	var out []ir.Expr
	for s != "" {
		if s[0] != '[' {
			return nil, fmt.Errorf("expected '[' in %q", s)
		}
		close := strings.IndexByte(s, ']')
		if close < 0 {
			return nil, fmt.Errorf("unclosed '[' in %q", s)
		}
		e, err := parseExpr(s[1:close])
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		s = s[close+1:]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty index list")
	}
	return out, nil
}

// parseExpr parses an affine expression: terms joined by + and -, each
// term a number, a symbol, or n*sym.
func parseExpr(s string) (ir.Expr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return ir.Expr{}, fmt.Errorf("empty expression")
	}
	expr := ir.Constant(0)
	sign := 1.0
	term := strings.Builder{}
	flush := func() error {
		t := strings.TrimSpace(term.String())
		term.Reset()
		if t == "" {
			return fmt.Errorf("empty term in expression %q", s)
		}
		e, err := parseTerm(t)
		if err != nil {
			return err
		}
		expr = expr.Add(e.Scale(sign))
		return nil
	}
	for _, r := range s {
		switch r {
		case '+':
			if err := flush(); err != nil {
				return ir.Expr{}, err
			}
			sign = 1
		case '-':
			if term.Len() == 0 && expr.Const == 0 && len(expr.Terms) == 0 {
				// Leading minus.
				sign = -1
				continue
			}
			if err := flush(); err != nil {
				return ir.Expr{}, err
			}
			sign = -1
		default:
			term.WriteRune(r)
		}
	}
	if err := flush(); err != nil {
		return ir.Expr{}, err
	}
	return expr, nil
}

// parseTerm parses "number", "sym", or "number*sym".
func parseTerm(t string) (ir.Expr, error) {
	if i := strings.IndexByte(t, '*'); i >= 0 {
		coeff, err := strconv.ParseFloat(strings.TrimSpace(t[:i]), 64)
		if err != nil {
			return ir.Expr{}, fmt.Errorf("bad coefficient in term %q", t)
		}
		sym := strings.TrimSpace(t[i+1:])
		if sym == "" {
			return ir.Expr{}, fmt.Errorf("missing symbol in term %q", t)
		}
		return ir.Sym(sym, coeff), nil
	}
	if v, err := strconv.ParseFloat(t, 64); err == nil {
		return ir.Constant(v), nil
	}
	return ir.Sym(t, 1), nil
}
