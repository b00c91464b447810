// Package transform implements the loop transformations that Orio's code
// generator applies to annotated kernels (Table I of the paper): loop
// unrolling, cache tiling (strip-mine + interchange), and register tiling
// (unroll-and-jam). Each transformation rewrites an ir.Nest; the cost model
// then analyzes the transformed nest.
//
// A transformation with factor/size 1 is the identity, matching the SPAPT
// convention that the first level of every parameter leaves the code
// untransformed.
package transform

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Unroll sets the unroll factor of the loop with variable v. The factor is
// clamped to the loop's average trip count (unrolling beyond the trip
// count generates dead copies, which compilers discard).
func Unroll(n *ir.Nest, v string, factor int) error {
	if factor < 1 {
		return fmt.Errorf("transform: unroll factor %d < 1 for loop %s", factor, v)
	}
	i := n.LoopIndex(v)
	if i < 0 {
		return fmt.Errorf("transform: no loop %q to unroll in %s", v, n.Name)
	}
	trip := int(n.TripCount(i))
	if trip > 0 && factor > trip {
		factor = trip
	}
	n.Loops[i].Unroll = factor
	return nil
}

// stripMine splits the loop with variable v into an outer tile loop
// (named outerVar, step = tile) and the original point loop confined to
// one tile. It returns the index of the new outer loop. tile must be >= 2; a
// tile of 1 should be treated as identity by the caller. The new loop goes
// into n.Loops in place when its capacity allows.
func stripMine(n *ir.Nest, v, outerVar string, tile int) (int, error) {
	if tile < 2 {
		return -1, fmt.Errorf("transform: strip-mine tile %d < 2 for loop %s", tile, v)
	}
	i := n.LoopIndex(v)
	if i < 0 {
		return -1, fmt.Errorf("transform: no loop %q to strip-mine in %s", v, n.Name)
	}
	if n.LoopIndex(outerVar) >= 0 {
		return -1, fmt.Errorf("transform: derived loop %q already exists when strip-mining %q", outerVar, v)
	}
	l := n.Loops[i]
	unit := ir.Sym(outerVar, 1)
	outer := ir.Loop{
		Var:    outerVar,
		Lower:  l.Lower,
		Upper:  l.Upper,
		Step:   l.Step * float64(tile),
		Unroll: 1,
	}
	inner := ir.Loop{
		Var:    v,
		Lower:  unit,
		Upper:  ir.Expr{Terms: unit.Terms, Const: l.Step * float64(tile)},
		Step:   l.Step,
		Unroll: l.Unroll,
	}
	n.Loops = append(n.Loops, ir.Loop{})
	copy(n.Loops[i+2:], n.Loops[i+1:])
	n.Loops[i], n.Loops[i+1] = outer, inner
	return i, nil
}

// CacheTile applies cache tiling to the named loops with the given tile
// sizes: each loop with tile > 1 is strip-mined, and all tile loops are
// hoisted to the outermost positions (preserving their relative order),
// which is the classical tiling transformation for locality.
func CacheTile(n *ir.Nest, vars []string, tiles []int) error {
	if len(vars) != len(tiles) {
		return fmt.Errorf("transform: %d loop names but %d tile sizes", len(vars), len(tiles))
	}
	tiled := make([]string, 0, len(vars))
	for idx, v := range vars {
		t := tiles[idx]
		if t < 1 {
			return fmt.Errorf("transform: cache tile %d < 1 for loop %s", t, v)
		}
		if t == 1 {
			continue // identity
		}
		// Clamp tiles beyond the loop extent: tiling with a tile larger
		// than the trip count is the identity.
		li := n.LoopIndex(v)
		if li < 0 {
			return fmt.Errorf("transform: no loop %q to tile in %s", v, n.Name)
		}
		if float64(t) >= n.TripCount(li) {
			continue
		}
		outer, err := stripMine(n, v, v+v, t)
		if err != nil {
			return err
		}
		tiled = append(tiled, n.Loops[outer].Var)
	}
	if len(tiled) == 0 {
		return nil
	}
	hoistOutermost(n, tiled)
	return nil
}

// hoistOutermost reorders loops in place so those named in order appear
// first, followed by the remaining loops in their existing relative order.
func hoistOutermost(n *ir.Nest, order []string) {
	for pos, v := range order {
		p := n.LoopIndex(v)
		l := n.Loops[p]
		copy(n.Loops[pos+1:p+1], n.Loops[pos:p])
		n.Loops[pos] = l
	}
}

// RegisterTile applies unroll-and-jam with register-block size rt to the
// loop with variable v: the loop is strip-mined by rt and the resulting
// point loop is sunk to the innermost position, fully unrolled, and marked
// as a register loop. The register block then reuses values in registers
// across the loops it was jammed inside.
func RegisterTile(n *ir.Nest, v string, rt int) error {
	if rt < 1 {
		return fmt.Errorf("transform: register tile %d < 1 for loop %s", rt, v)
	}
	if rt == 1 {
		return nil // identity
	}
	li := n.LoopIndex(v)
	if li < 0 {
		return fmt.Errorf("transform: no loop %q to register-tile in %s", v, n.Name)
	}
	if float64(rt) >= n.TripCount(li) {
		return nil // block covers whole loop; treat as identity
	}
	if _, err := stripMine(n, v, v+"_b", rt); err != nil {
		return err
	}
	// The point loop (still named v) becomes the innermost loop, fully
	// unrolled into the body.
	pi := n.LoopIndex(v)
	point := n.Loops[pi]
	point.Unroll = rt
	point.Register = true
	copy(n.Loops[pi:], n.Loops[pi+1:])
	n.Loops[len(n.Loops)-1] = point
	return nil
}

// Interchange swaps the loops at positions a and b. It is used by tests
// and by kernels whose parameterization includes loop order.
func Interchange(n *ir.Nest, a, b int) error {
	if a < 0 || b < 0 || a >= len(n.Loops) || b >= len(n.Loops) {
		return fmt.Errorf("transform: interchange positions %d,%d out of range", a, b)
	}
	n.Loops[a], n.Loops[b] = n.Loops[b], n.Loops[a]
	return nil
}

// Factor binds one loop variable to a factor or size.
type Factor struct {
	Var string
	N   int
}

// Factors assigns factors to loop variables in a fixed order. A variable
// without an entry has factor 1; a variable should appear at most once
// (Get reads the last entry).
type Factors []Factor

// Get returns the factor of loop variable v, defaulting to 1.
func (fs Factors) Get(v string) int {
	for i := len(fs) - 1; i >= 0; i-- {
		if fs[i].Var == v {
			return fs[i].N
		}
	}
	return 1
}

// Spec is a complete transformation recipe for a kernel: per-loop unroll
// factors, cache tiles, and register tiles, keyed by the original loop
// variables. It corresponds to one point of the SPAPT search space.
type Spec struct {
	// Order lists the original loop variables, outermost first.
	Order []string
	// Unrolls, CacheTiles, RegTiles assign loop variables their
	// factor/size. Missing entries mean 1 (identity).
	Unrolls    Factors
	CacheTiles Factors
	RegTiles   Factors
	// ScalarReplace requests source-level scalar replacement of
	// loop-invariant references (SPAPT's SCR knob). It does not change
	// the loop structure; the cost model reads it.
	ScalarReplace bool
	// VectorHint requests ivdep/simd pragmas on the innermost loop
	// (SPAPT's VEC knob); the cost model reads it.
	VectorHint bool
}

// Apply transforms a copy of base according to the spec and returns it.
// The application order is the one Orio uses: cache tiling first (creating
// the tile loop structure), then register tiling on the point loops, then
// unrolling of whatever point loops remain un-jammed. The result has its
// own Loops and shares Body, Arrays and Sizes with base: no transformation
// writes those.
func Apply(base *ir.Nest, spec Spec) (*ir.Nest, error) {
	n := new(ir.Nest)
	if err := ApplyTo(n, base, spec); err != nil {
		return nil, err
	}
	return n, nil
}

// ApplyTo is Apply writing the transformed copy into n, whose Loops
// buffer it reuses, so a caller that transforms variants one after
// another can keep one scratch nest. It overwrites all of n; on error n
// holds no meaningful nest.
func ApplyTo(n *ir.Nest, base *ir.Nest, spec Spec) error {
	vars := spec.Order
	if len(vars) == 0 {
		for _, l := range base.Loops {
			vars = append(vars, l.Var)
		}
	}
	// Each variable strip-mines at most twice (cache and register tile).
	loops := slices.Grow(append(n.Loops[:0], base.Loops...), 2*len(vars))
	*n = ir.Nest{Name: base.Name, Loops: loops, Body: base.Body, Arrays: base.Arrays, Sizes: base.Sizes}

	tiles := make([]int, len(vars))
	for i, v := range vars {
		tiles[i] = spec.CacheTiles.Get(v)
	}
	if err := CacheTile(n, vars, tiles); err != nil {
		return err
	}

	for _, v := range vars {
		if rt := spec.RegTiles.Get(v); rt > 1 {
			if err := RegisterTile(n, v, rt); err != nil {
				return err
			}
		}
	}

	for _, v := range vars {
		if u := spec.Unrolls.Get(v); u > 1 {
			li := n.LoopIndex(v)
			if li >= 0 && n.Loops[li].Register {
				continue // already fully unrolled by unroll-and-jam
			}
			if err := Unroll(n, v, u); err != nil {
				return err
			}
		}
	}

	if err := n.Validate(); err != nil {
		return fmt.Errorf("transform: result of spec invalid: %w", err)
	}
	return nil
}
