// Package kernels defines the four SPAPT search problems used in the
// paper's kernel experiments (Table III): Matrix Multiply (MM), ATAx
// (ATAX), Correlation (COR), and LU Decomposition (LU). Each kernel is a
// set of loop nests in the internal IR plus a typed parameter space of
// per-loop unroll factors, cache tiles, and register tiles (Table I), with
// SPAPT's scalar-replacement / vectorization / OpenMP switches where the
// paper's parameter counts require them.
//
// A Problem binds a kernel to a simulated machine target and exposes the
// evaluation interface the search algorithms consume.
package kernels

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/transform"
)

// loopBinding associates one loop of one nest with its parameter suffix:
// parameters U_<suffix>, T_<suffix>, RT_<suffix> control the loop.
type loopBinding struct {
	nest   int
	vr     string
	suffix string
}

// Kernel is one SPAPT search problem: loop nests plus the tunable space.
type Kernel struct {
	Name      string
	InputSize string
	Nests     []*ir.Nest

	spc      *space.Space
	bindings []loopBinding
	hasSCR   bool
	hasVEC   bool
	hasOMP   bool
}

// Space returns the kernel's configuration space.
func (k *Kernel) Space() *space.Space { return k.spc }

// SpecsFor maps a configuration to one transformation spec per nest.
func (k *Kernel) SpecsFor(c space.Config) []transform.Spec {
	specs := make([]transform.Spec, len(k.Nests))
	for ni, n := range k.Nests {
		spec := transform.Spec{
			Unrolls:    map[string]int{},
			CacheTiles: map[string]int{},
			RegTiles:   map[string]int{},
		}
		for _, l := range n.Loops {
			spec.Order = append(spec.Order, l.Var)
		}
		if k.hasSCR {
			spec.ScalarReplace = k.spc.MustValue(c, "SCR") == 1
		}
		if k.hasVEC {
			spec.VectorHint = k.spc.MustValue(c, "VEC") == 1
		}
		specs[ni] = spec
	}
	for _, b := range k.bindings {
		specs[b.nest].Unrolls[b.vr] = k.spc.MustValue(c, "U_"+b.suffix)
		specs[b.nest].CacheTiles[b.vr] = k.spc.MustValue(c, "T_"+b.suffix)
		specs[b.nest].RegTiles[b.vr] = k.spc.MustValue(c, "RT_"+b.suffix)
	}
	return specs
}

// OMPEnabled reports whether the configuration turns the OpenMP pragmas
// on. Kernels without an OMP knob (LU) always use the target's threads.
func (k *Kernel) OMPEnabled(c space.Config) bool {
	if !k.hasOMP {
		return true
	}
	return k.spc.MustValue(c, "OMP") == 1
}

// Binding associates one loop of one nest with its parameter suffix;
// parameters U_<suffix>, T_<suffix>, RT_<suffix> control the loop.
// It is the exported form of the internal binding used by Custom.
type Binding struct {
	Nest   int
	Var    string
	Suffix string
}

// Custom assembles a Kernel from externally-constructed parts (used by
// the annotation front end in internal/annotate). The space must contain
// parameters U_/T_/RT_<suffix> for every binding, and SCR/VEC/OMP when
// the corresponding switches are enabled.
func Custom(name, inputSize string, nests []*ir.Nest, spc *space.Space, bindings []Binding, hasSCR, hasVEC, hasOMP bool) (*Kernel, error) {
	k := &Kernel{
		Name: name, InputSize: inputSize, Nests: nests, spc: spc,
		hasSCR: hasSCR, hasVEC: hasVEC, hasOMP: hasOMP,
	}
	for _, b := range bindings {
		if b.Nest < 0 || b.Nest >= len(nests) {
			return nil, fmt.Errorf("kernels: binding references nest %d of %d", b.Nest, len(nests))
		}
		if nests[b.Nest].LoopIndex(b.Var) < 0 {
			return nil, fmt.Errorf("kernels: binding references unknown loop %q in nest %d", b.Var, b.Nest)
		}
		for _, prefix := range []string{"U_", "T_", "RT_"} {
			if spc.Index(prefix+b.Suffix) < 0 {
				return nil, fmt.Errorf("kernels: space missing parameter %s%s", prefix, b.Suffix)
			}
		}
		k.bindings = append(k.bindings, loopBinding{nest: b.Nest, vr: b.Var, suffix: b.Suffix})
	}
	for flag, enabled := range map[string]bool{"SCR": hasSCR, "VEC": hasVEC, "OMP": hasOMP} {
		if enabled && spc.Index(flag) < 0 {
			return nil, fmt.Errorf("kernels: space missing switch %s", flag)
		}
	}
	for _, n := range nests {
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("kernels: %w", err)
		}
	}
	return k, nil
}

// dense is a helper for 8-byte array declarations.
func dense(name string, dims ...ir.Expr) ir.Array {
	return ir.Array{Name: name, Dims: dims, ElemSize: 8}
}

// MM returns the Matrix Multiply kernel, C = A*B, with the given order n
// (the paper uses 2000).
func MM(n int) *Kernel {
	N := ir.Sym("N", 1)
	nest := &ir.Nest{
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
			"A": dense("A", N, N), "B": dense("B", N, N), "C": dense("C", N, N),
		},
		Sizes: map[string]float64{"N": float64(n)},
	}
	k := &Kernel{
		Name:      sizedName("MM", n, DefaultMMSize),
		InputSize: fmt.Sprintf("%dx%d", n, n),
		Nests:     []*ir.Nest{nest},
		bindings: []loopBinding{
			{0, "i", "I"}, {0, "j", "J"}, {0, "k", "K"},
		},
		hasSCR: true, hasVEC: true, hasOMP: true,
	}
	k.spc = space.New(
		space.NewIntRange("U_I", 1, 32),
		space.NewIntRange("U_J", 1, 32),
		space.NewIntRange("U_K", 1, 32),
		space.NewPowerOfTwo("T_I", 0, 11),
		space.NewPowerOfTwo("T_J", 0, 11),
		space.NewPowerOfTwo("T_K", 0, 11),
		space.NewPowerOfTwo("RT_I", 0, 5),
		space.NewPowerOfTwo("RT_J", 0, 5),
		space.NewPowerOfTwo("RT_K", 0, 5),
		space.NewBoolean("SCR"),
		space.NewBoolean("VEC"),
		space.NewBoolean("OMP"),
	)
	return k
}

// ATAX returns the A^T*(A*x) kernel with vector length n (paper: 10000).
// It has two loop nests: t = A*x, then y = A^T*t.
func ATAX(n int) *Kernel {
	N := ir.Sym("N", 1)
	nest1 := &ir.Nest{
		Name: "atax_t",
		Loops: []ir.Loop{
			{Var: "i", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
			{Var: "j", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
		},
		Body: []ir.Stmt{{
			Refs: []ir.Ref{
				{Array: "t", Index: []ir.Expr{ir.Sym("i", 1)}, Write: true},
				{Array: "A", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("j", 1)}},
				{Array: "x", Index: []ir.Expr{ir.Sym("j", 1)}},
			},
			Flops: 2,
		}},
		Arrays: map[string]ir.Array{
			"A": dense("A", N, N), "x": dense("x", N), "t": dense("t", N),
		},
		Sizes: map[string]float64{"N": float64(n)},
	}
	nest2 := &ir.Nest{
		Name: "atax_y",
		Loops: []ir.Loop{
			{Var: "i", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
			{Var: "j", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
		},
		Body: []ir.Stmt{{
			Refs: []ir.Ref{
				{Array: "y", Index: []ir.Expr{ir.Sym("j", 1)}, Write: true},
				{Array: "A", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("j", 1)}},
				{Array: "t", Index: []ir.Expr{ir.Sym("i", 1)}},
			},
			Flops: 2,
		}},
		Arrays: map[string]ir.Array{
			"A": dense("A", N, N), "y": dense("y", N), "t": dense("t", N),
		},
		Sizes: map[string]float64{"N": float64(n)},
	}
	k := &Kernel{
		Name:      sizedName("ATAX", n, DefaultATAXSize),
		InputSize: fmt.Sprintf("%d", n),
		Nests:     []*ir.Nest{nest1, nest2},
		bindings: []loopBinding{
			{0, "i", "I1"}, {0, "j", "J1"},
			{1, "i", "I2"}, {1, "j", "J2"},
		},
		hasOMP: true,
	}
	k.spc = space.New(
		space.NewIntRange("U_I1", 1, 32),
		space.NewIntRange("U_J1", 1, 32),
		space.NewIntRange("U_I2", 1, 32),
		space.NewIntRange("U_J2", 1, 16),
		space.NewPowerOfTwo("T_I1", 0, 7),
		space.NewPowerOfTwo("T_J1", 0, 7),
		space.NewPowerOfTwo("T_I2", 0, 7),
		space.NewPowerOfTwo("T_J2", 0, 7),
		space.NewPowerOfTwo("RT_I1", 0, 4),
		space.NewPowerOfTwo("RT_J1", 0, 4),
		space.NewPowerOfTwo("RT_I2", 0, 4),
		space.NewPowerOfTwo("RT_J2", 0, 4),
		space.NewBoolean("OMP"),
	)
	return k
}

// COR returns the correlation kernel: the upper triangle of the
// column-correlation matrix of an n-by-n data set (paper: 2000x2000).
func COR(n int) *Kernel {
	N := ir.Sym("N", 1)
	nest := &ir.Nest{
		Name: "cor",
		Loops: []ir.Loop{
			{Var: "j1", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
			{Var: "j2", Lower: ir.Sym("j1", 1).AddConst(1), Upper: N, Step: 1, Unroll: 1},
			{Var: "i", Lower: ir.Constant(0), Upper: N, Step: 1, Unroll: 1},
		},
		Body: []ir.Stmt{{
			Refs: []ir.Ref{
				{Array: "S", Index: []ir.Expr{ir.Sym("j1", 1), ir.Sym("j2", 1)}, Write: true},
				{Array: "D", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("j1", 1)}},
				{Array: "D", Index: []ir.Expr{ir.Sym("i", 1), ir.Sym("j2", 1)}},
			},
			Flops: 2,
		}},
		Arrays: map[string]ir.Array{
			"S": dense("S", N, N), "D": dense("D", N, N),
		},
		Sizes: map[string]float64{"N": float64(n)},
	}
	k := &Kernel{
		Name:      sizedName("COR", n, DefaultCORSize),
		InputSize: fmt.Sprintf("%dx%d", n, n),
		Nests:     []*ir.Nest{nest},
		bindings: []loopBinding{
			{0, "j1", "J1"}, {0, "j2", "J2"}, {0, "i", "I"},
		},
		hasSCR: true, hasVEC: true, hasOMP: true,
	}
	k.spc = space.New(
		space.NewIntRange("U_J1", 1, 32),
		space.NewIntRange("U_J2", 1, 32),
		space.NewIntRange("U_I", 1, 32),
		space.NewPowerOfTwo("T_J1", 0, 11),
		space.NewPowerOfTwo("T_J2", 0, 11),
		space.NewPowerOfTwo("T_I", 0, 11),
		space.NewPowerOfTwo("RT_J1", 0, 5),
		space.NewPowerOfTwo("RT_J2", 0, 5),
		space.NewPowerOfTwo("RT_I", 0, 5),
		space.NewBoolean("SCR"),
		space.NewBoolean("VEC"),
		space.NewBoolean("OMP"),
	)
	return k
}

// LU returns the LU decomposition kernel's triangular update nest
// (paper: 2000x2000). Its 9-parameter space has no boolean switches,
// matching Table III.
func LU(n int) *Kernel {
	N := ir.Sym("N", 1)
	nest := &ir.Nest{
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
		Arrays: map[string]ir.Array{"A": dense("A", N, N)},
		Sizes:  map[string]float64{"N": float64(n)},
	}
	k := &Kernel{
		Name:      sizedName("LU", n, DefaultLUSize),
		InputSize: fmt.Sprintf("%dx%d", n, n),
		Nests:     []*ir.Nest{nest},
		bindings: []loopBinding{
			{0, "k", "K"}, {0, "i", "I"}, {0, "j", "J"},
		},
	}
	k.spc = space.New(
		space.NewIntRange("U_K", 1, 16),
		space.NewIntRange("U_I", 1, 16),
		space.NewIntRange("U_J", 1, 16),
		space.NewPowerOfTwo("T_K", 0, 8),
		space.NewPowerOfTwo("T_I", 0, 8),
		space.NewPowerOfTwo("T_J", 0, 8),
		space.NewPowerOfTwo("RT_K", 0, 5),
		space.NewPowerOfTwo("RT_I", 0, 5),
		space.NewPowerOfTwo("RT_J", 0, 5),
	)
	return k
}

// Default paper input sizes (Table III).
const (
	DefaultMMSize   = 2000
	DefaultATAXSize = 10000
	DefaultCORSize  = 2000
	DefaultLUSize   = 2000
)

// sizedName names a kernel built at size n: the bare name at the paper
// size, name_n<n> at any other. An off-size kernel thus never shares a
// problem name, and with it an evaluation-cache scope, a journal meta,
// or a wire name, with the paper-size one, and ByName refuses it.
func sizedName(name string, n, paper int) string {
	if n == paper {
		return name
	}
	return fmt.Sprintf("%s_n%d", name, n)
}

// ByName returns the named kernel at its paper input size.
func ByName(name string) (*Kernel, error) {
	switch strings.ToUpper(name) {
	case "MM":
		return MM(DefaultMMSize), nil
	case "ATAX":
		return ATAX(DefaultATAXSize), nil
	case "COR":
		return COR(DefaultCORSize), nil
	case "LU":
		return LU(DefaultLUSize), nil
	default:
		return nil, fmt.Errorf("kernels: unknown kernel %q (known: MM, ATAX, COR, LU)", name)
	}
}

// All returns the four kernels at their paper input sizes, in Table III
// order.
func All() []*Kernel {
	return []*Kernel{
		MM(DefaultMMSize),
		ATAX(DefaultATAXSize),
		COR(DefaultCORSize),
		LU(DefaultLUSize),
	}
}

// Problem binds a kernel to a simulated target machine and exposes the
// evaluation interface consumed by the search algorithms: Evaluate
// returns the measured run time of a configuration and the total cost
// charged to the search clock (compile + run).
type Problem struct {
	Kernel *Kernel
	Target sim.Target
	// ForceOMP runs every configuration with the target's thread count,
	// ignoring the kernel's OMP switch. The paper's Xeon Phi experiments
	// added OpenMP pragmas to the kernels outside the search (a beta
	// hyperparameter held fixed), which this reproduces.
	ForceOMP bool
}

// NewProblem constructs a Problem.
func NewProblem(k *Kernel, tgt sim.Target) *Problem {
	return &Problem{Kernel: k, Target: tgt}
}

// Name identifies the problem, e.g. "MM@Sandybridge/gnu-4.4.7/t1". A
// problem with ForceOMP set evaluates differently from one without, so
// the name says so: "MM@XeonPhi/intel-15.0.1/t60+omp".
func (p *Problem) Name() string {
	name := p.Kernel.Name + "@" + p.Target.Key()
	if p.ForceOMP {
		name += "+omp"
	}
	return name
}

// Space returns the kernel's configuration space.
func (p *Problem) Space() *space.Space { return p.Kernel.Space() }

// Evaluate compiles and runs the configuration on the simulated target.
func (p *Problem) Evaluate(c space.Config) (runTime, cost float64) {
	if err := p.Kernel.Space().Validate(c); err != nil {
		panic(fmt.Sprintf("kernels: %v", err))
	}
	specs := p.Kernel.SpecsFor(c)
	tgt := p.Target
	if !p.ForceOMP && !p.Kernel.OMPEnabled(c) {
		tgt.Threads = 1
	}
	run := 0.0
	compile := tgt.Machine.CompileBaseS
	for ni, spec := range specs {
		cost, err := sim.Evaluate(p.Kernel.Nests[ni], spec, tgt)
		if err != nil {
			panic(fmt.Sprintf("kernels: evaluating %s nest %d: %v", p.Kernel.Name, ni, err))
		}
		run += cost.RunSeconds
		// The nests compile into one binary: count the base once and the
		// per-nest code-growth components once each.
		compile += cost.CompileSeconds - tgt.Machine.CompileBaseS
	}
	return run, run + compile
}
