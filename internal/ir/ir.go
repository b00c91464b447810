// Package ir defines a loop-nest intermediate representation for the
// compute kernels that the autotuner transforms. The IR captures exactly
// what the performance model needs: loop structure (bounds, steps, average
// trip counts, unroll metadata), affine array references, and per-statement
// floating-point work.
//
// Code transformations (strip-mining for cache tiling, loop interchange,
// unrolling, unroll-and-jam for register tiling) rewrite this IR; the cost
// model in internal/sim analyzes the transformed nest. This mirrors how
// Orio generates and measures real code variants, with the measurement
// replaced by an analytical machine model.
package ir

import (
	"fmt"
	"strings"
)

// Expr is an affine expression over named symbols: the sum of
// Coeff*Sym over its terms plus Const. Symbols are loop variables (e.g.
// "i", "ii") or problem-size symbols (e.g. "N").
//
// Terms are sorted by symbol name, one per symbol, so every operation
// visits them in one fixed order. Expressions share their term slices
// freely: no operation modifies a term slice after building it.
type Expr struct {
	Terms []Term
	Const float64
}

// Term is one Coeff*Sym summand of an Expr.
type Term struct {
	Sym   string
	Coeff float64
}

// Const returns a constant expression.
func Constant(c float64) Expr { return Expr{Const: c} }

// Sym returns the expression coeff*name.
func Sym(name string, coeff float64) Expr {
	return Expr{Terms: []Term{{Sym: name, Coeff: coeff}}}
}

// Add returns e + f as a new expression. Coefficients that cancel to
// zero are dropped.
func (e Expr) Add(f Expr) Expr {
	out := Expr{Const: e.Const + f.Const}
	if len(e.Terms)+len(f.Terms) == 0 {
		return out
	}
	terms := make([]Term, 0, len(e.Terms)+len(f.Terms))
	i, j := 0, 0
	for i < len(e.Terms) || j < len(f.Terms) {
		var t Term
		switch {
		case j == len(f.Terms) || (i < len(e.Terms) && e.Terms[i].Sym < f.Terms[j].Sym):
			t = e.Terms[i]
			i++
		case i == len(e.Terms) || f.Terms[j].Sym < e.Terms[i].Sym:
			t = f.Terms[j]
			j++
		default:
			t = Term{Sym: e.Terms[i].Sym, Coeff: e.Terms[i].Coeff + f.Terms[j].Coeff}
			i++
			j++
		}
		if t.Coeff != 0 {
			terms = append(terms, t)
		}
	}
	if len(terms) > 0 {
		out.Terms = terms
	}
	return out
}

// AddConst returns e + c.
func (e Expr) AddConst(c float64) Expr { return e.Add(Constant(c)) }

// Scale returns k*e. Terms whose scaled coefficient is zero are dropped.
func (e Expr) Scale(k float64) Expr {
	out := Expr{Const: e.Const * k}
	var terms []Term
	for _, t := range e.Terms {
		if c := t.Coeff * k; c != 0 {
			if terms == nil {
				terms = make([]Term, 0, len(e.Terms))
			}
			terms = append(terms, Term{Sym: t.Sym, Coeff: c})
		}
	}
	out.Terms = terms
	return out
}

// Eval evaluates the expression under the given symbol bindings. Unbound
// symbols evaluate to 0. Terms are summed in symbol order.
func (e Expr) Eval(env map[string]float64) float64 {
	v := e.Const
	for _, t := range e.Terms {
		v += float64(t.Coeff * env[t.Sym])
	}
	return v
}

// CoeffOf returns the coefficient of the named symbol (0 if absent).
func (e Expr) CoeffOf(name string) float64 {
	for _, t := range e.Terms {
		if t.Sym == name {
			return t.Coeff
		}
	}
	return 0
}

// Uses reports whether the expression mentions the symbol.
func (e Expr) Uses(name string) bool { return e.CoeffOf(name) != 0 }

// Substitute replaces symbol name with expression repl.
func (e Expr) Substitute(name string, repl Expr) Expr {
	c := e.CoeffOf(name)
	if c == 0 {
		return e
	}
	out := Expr{Const: e.Const}
	for _, t := range e.Terms {
		if t.Sym != name {
			out.Terms = append(out.Terms, t)
		}
	}
	return out.Add(repl.Scale(c))
}

// String renders the expression deterministically.
func (e Expr) String() string {
	if len(e.Terms) == 0 {
		return fmt.Sprintf("%g", e.Const)
	}
	var b strings.Builder
	for i, t := range e.Terms {
		c := t.Coeff
		if i > 0 {
			if c >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				c = -c
			}
		} else if c < 0 {
			b.WriteString("-")
			c = -c
		}
		if c == 1 {
			b.WriteString(t.Sym)
		} else {
			fmt.Fprintf(&b, "%g*%s", c, t.Sym)
		}
	}
	if e.Const != 0 {
		if e.Const > 0 {
			fmt.Fprintf(&b, " + %g", e.Const)
		} else {
			fmt.Fprintf(&b, " - %g", -e.Const)
		}
	}
	return b.String()
}

// Loop is one level of a loop nest, ordered outermost first in Nest.Loops.
// Bounds are affine in problem-size symbols and outer loop variables
// (supporting the triangular loops of LU and COR).
type Loop struct {
	Var    string
	Lower  Expr // inclusive
	Upper  Expr // exclusive
	Step   float64
	Unroll int // unroll factor; 1 means not unrolled
	// Register marks a loop produced by register tiling (unroll-and-jam):
	// its iterations live entirely in registers, so the cost model counts
	// it toward register pressure rather than loop overhead.
	Register bool
}

// Array describes a data array: dimension extents (affine in problem
// sizes) and element size in bytes.
type Array struct {
	Name     string
	Dims     []Expr
	ElemSize int
}

// Ref is an access to an array with one affine index expression per
// dimension.
type Ref struct {
	Array string
	Index []Expr
	Write bool
}

// Stmt is a straight-line statement in the innermost body: the references
// it makes and the floating-point operations it performs per execution.
type Stmt struct {
	Refs  []Ref
	Flops float64
}

// Nest is a (possibly imperfect after transformation, but modeled as
// perfect) loop nest: loops from outermost to innermost, a body of
// statements executed in the innermost loop, arrays, and problem-size
// bindings.
type Nest struct {
	Name   string
	Loops  []Loop
	Body   []Stmt
	Arrays map[string]Array
	// Sizes binds problem-size symbols such as "N" to concrete values.
	Sizes map[string]float64
}

// Clone returns a deep copy of the nest.
func (n *Nest) Clone() *Nest {
	out := &Nest{
		Name:   n.Name,
		Loops:  make([]Loop, len(n.Loops)),
		Body:   make([]Stmt, len(n.Body)),
		Arrays: make(map[string]Array, len(n.Arrays)),
		Sizes:  make(map[string]float64, len(n.Sizes)),
	}
	copy(out.Loops, n.Loops)
	for i, s := range n.Body {
		refs := make([]Ref, len(s.Refs))
		for j, r := range s.Refs {
			idx := make([]Expr, len(r.Index))
			copy(idx, r.Index)
			refs[j] = Ref{Array: r.Array, Index: idx, Write: r.Write}
		}
		out.Body[i] = Stmt{Refs: refs, Flops: s.Flops}
	}
	for k, a := range n.Arrays {
		dims := make([]Expr, len(a.Dims))
		copy(dims, a.Dims)
		out.Arrays[k] = Array{Name: a.Name, Dims: dims, ElemSize: a.ElemSize}
	}
	for k, v := range n.Sizes {
		out.Sizes[k] = v
	}
	return out
}

// LoopIndex returns the position of the loop with the given variable,
// or -1 if absent.
func (n *Nest) LoopIndex(v string) int {
	for i, l := range n.Loops {
		if l.Var == v {
			return i
		}
	}
	return -1
}

// maxStackLoops is the nest depth up to which the trip-count helpers
// keep their environment on the stack.
const maxStackLoops = 16

// lookup returns the value of sym in an environment that binds problem
// sizes and the first len(mids) loop variables (to mids): the latest such
// loop with that variable wins over a problem size, and an unbound symbol
// is 0.
func (n *Nest) lookup(sym string, mids []float64) float64 {
	for j := len(mids) - 1; j >= 0; j-- {
		if n.Loops[j].Var == sym {
			return mids[j]
		}
	}
	return n.Sizes[sym]
}

// evalIn evaluates e in the environment lookup describes.
func (n *Nest) evalIn(e Expr, mids []float64) float64 {
	v := e.Const
	for _, t := range e.Terms {
		v += float64(t.Coeff * n.lookup(t.Sym, mids))
	}
	return v
}

// env binds problem sizes and every loop variable to the midpoint of its
// range (used to evaluate bounds of triangular loops on average): each
// loop's bounds see the sizes and the loops outside it. It returns the
// midpoints, one per loop, in buf when it is long enough.
func (n *Nest) env(buf []float64) []float64 {
	mids := buf[:0]
	if cap(mids) < len(n.Loops) {
		mids = make([]float64, 0, len(n.Loops))
	}
	for _, l := range n.Loops {
		lo := n.evalIn(l.Lower, mids)
		hi := n.evalIn(l.Upper, mids)
		if hi < lo {
			hi = lo
		}
		mids = append(mids, (lo+hi)/2)
	}
	return mids
}

// tripIn returns loop i's average trip count under the full environment
// mids.
func (n *Nest) tripIn(i int, mids []float64) float64 {
	l := n.Loops[i]
	lo := n.evalIn(l.Lower, mids)
	hi := n.evalIn(l.Upper, mids)
	if hi <= lo {
		return 0
	}
	step := l.Step
	if step <= 0 {
		step = 1
	}
	trips := (hi - lo) / step
	if trips < 1 {
		trips = 1
	}
	return trips
}

// TripCount returns the average trip count of loop i, accounting for
// triangular bounds by evaluating outer loop variables at their midpoints,
// and for unrolling (an unrolled loop executes Trip/Unroll iterations of a
// body replicated Unroll times).
func (n *Nest) TripCount(i int) float64 {
	var buf [maxStackLoops]float64
	return n.tripIn(i, n.env(buf[:]))
}

// Trips returns the average trip count of every loop, outermost first:
// TripCount of each position, with the environment built once.
func (n *Nest) Trips() []float64 {
	var buf [maxStackLoops]float64
	mids := n.env(buf[:])
	trips := make([]float64, len(n.Loops))
	for i := range trips {
		trips[i] = n.tripIn(i, mids)
	}
	return trips
}

// IterCount returns the number of times loop i's header executes, i.e. the
// product of trip counts of loops 0..i-1 (divided by their unroll factors)
// times loop i's own trip count divided by its unroll factor.
func (n *Nest) IterCount(i int) float64 {
	trips := n.Trips()
	count := 1.0
	for j := 0; j <= i; j++ {
		u := float64(n.Loops[j].Unroll)
		if u < 1 {
			u = 1
		}
		count *= trips[j] / u
	}
	return count
}

// BodyExecutions returns the total number of innermost body executions
// (unrolling does not change this: each header iteration runs Unroll
// copies of the body).
func (n *Nest) BodyExecutions() float64 {
	count := 1.0
	for _, t := range n.Trips() {
		count *= t
	}
	return count
}

// TotalFlops returns the total floating-point operations of the nest.
func (n *Nest) TotalFlops() float64 {
	perBody := 0.0
	for _, s := range n.Body {
		perBody += s.Flops
	}
	return perBody * n.BodyExecutions()
}

// Refs returns all references of the body, flattened.
func (n *Nest) Refs() []Ref {
	var out []Ref
	for _, s := range n.Body {
		out = append(out, s.Refs...)
	}
	return out
}

// Validate checks structural invariants: unique loop variables, references
// only to declared arrays with matching dimensionality, positive steps and
// unrolls, and index expressions using only loop variables or sizes.
func (n *Nest) Validate() error {
	for i, l := range n.Loops {
		if l.Var == "" {
			return fmt.Errorf("ir: loop with empty variable in %s", n.Name)
		}
		for _, outer := range n.Loops[:i] {
			if outer.Var == l.Var {
				return fmt.Errorf("ir: duplicate loop variable %q in %s", l.Var, n.Name)
			}
		}
		if l.Step <= 0 {
			return fmt.Errorf("ir: loop %q has non-positive step %g", l.Var, l.Step)
		}
		if l.Unroll < 1 {
			return fmt.Errorf("ir: loop %q has unroll %d < 1", l.Var, l.Unroll)
		}
	}
	for si, s := range n.Body {
		if len(s.Refs) == 0 {
			return fmt.Errorf("ir: statement %d of %s has no references", si, n.Name)
		}
		for _, r := range s.Refs {
			a, ok := n.Arrays[r.Array]
			if !ok {
				return fmt.Errorf("ir: reference to undeclared array %q in %s", r.Array, n.Name)
			}
			if len(r.Index) != len(a.Dims) {
				return fmt.Errorf("ir: array %q accessed with %d indices, declared %d dims",
					r.Array, len(r.Index), len(a.Dims))
			}
			for _, idx := range r.Index {
				for _, t := range idx.Terms {
					if _, size := n.Sizes[t.Sym]; !size && n.LoopIndex(t.Sym) < 0 {
						return fmt.Errorf("ir: index of %q uses unknown symbol %q", r.Array, t.Sym)
					}
				}
			}
		}
	}
	for _, a := range n.Arrays {
		if a.ElemSize <= 0 {
			return fmt.Errorf("ir: array %q has element size %d", a.Name, a.ElemSize)
		}
		for _, d := range a.Dims {
			for _, t := range d.Terms {
				if _, ok := n.Sizes[t.Sym]; !ok {
					return fmt.Errorf("ir: dimension of %q uses unbound symbol %q", a.Name, t.Sym)
				}
			}
		}
	}
	return nil
}

// String renders the nest as pseudo-C for inspection and golden tests.
func (n *Nest) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// nest %s\n", n.Name)
	indent := ""
	for _, l := range n.Loops {
		fmt.Fprintf(&b, "%sfor (%s = %s; %s < %s; %s += %g)", indent, l.Var, l.Lower, l.Var, l.Upper, l.Var, l.Step)
		if l.Unroll > 1 {
			fmt.Fprintf(&b, " /* unroll %d */", l.Unroll)
		}
		b.WriteString(" {\n")
		indent += "  "
	}
	for _, s := range n.Body {
		b.WriteString(indent)
		var parts []string
		for _, r := range s.Refs {
			idx := make([]string, len(r.Index))
			for i, e := range r.Index {
				idx[i] = e.String()
			}
			mark := ""
			if r.Write {
				mark = "="
			}
			parts = append(parts, fmt.Sprintf("%s[%s]%s", r.Array, strings.Join(idx, "]["), mark))
		}
		fmt.Fprintf(&b, "%s; // %g flops\n", strings.Join(parts, " "), s.Flops)
	}
	for i := len(n.Loops) - 1; i >= 0; i-- {
		indent = indent[:2*i]
		b.WriteString(indent + "}\n")
	}
	return b.String()
}

// VarExtent returns the average extent (max - min) swept by loop variable
// v, treating outer triangular bounds at midpoints, divided by unrolling
// (an unrolled loop's header variable advances in strides of
// Step*Unroll, but each body copy offsets within that stride, so the
// swept extent is unchanged; hence unroll is ignored here).
func (n *Nest) VarExtent(v string) float64 {
	i := n.LoopIndex(v)
	if i < 0 {
		return 0
	}
	var buf [maxStackLoops]float64
	mids := n.env(buf[:])
	l := n.Loops[i]
	lo := n.evalIn(l.Lower, mids)
	hi := n.evalIn(l.Upper, mids)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
