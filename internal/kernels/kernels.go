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
	"strconv"
	"strings"
	"sync/atomic"

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
	// u, t, rt are the space positions of U_, T_ and RT_<suffix>.
	u, t, rt int
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
	// scr, vec, omp are the space positions of the switches (-1 when
	// the kernel has none).
	scr, vec, omp int
	// orders[ni] is nest ni's loop order, the one every spec of the nest
	// lists; SpecsFor shares it read-only.
	orders [][]string
}

// Space returns the kernel's configuration space.
func (k *Kernel) Space() *space.Space { return k.spc }

// index resolves the bindings' and switches' parameter positions in the
// kernel's space, once, when the kernel is built.
func (k *Kernel) index() *Kernel {
	for i := range k.bindings {
		b := &k.bindings[i]
		b.u, b.t, b.rt = k.spc.Index("U_"+b.suffix), k.spc.Index("T_"+b.suffix), k.spc.Index("RT_"+b.suffix)
	}
	k.scr, k.vec, k.omp = -1, -1, -1
	if k.hasSCR {
		k.scr = k.spc.Index("SCR")
	}
	if k.hasVEC {
		k.vec = k.spc.Index("VEC")
	}
	if k.hasOMP {
		k.omp = k.spc.Index("OMP")
	}
	k.orders = make([][]string, len(k.Nests))
	for ni, n := range k.Nests {
		k.orders[ni] = make([]string, len(n.Loops))
		for i, l := range n.Loops {
			k.orders[ni][i] = l.Var
		}
	}
	return k
}

// value returns the concrete value of parameter i in c.
func (k *Kernel) value(c space.Config, i int) int { return k.spc.Param(i).Value(c[i]) }

// SpecsFor maps a configuration to one transformation spec per nest. Each
// spec lists its nest's factors in binding order.
func (k *Kernel) SpecsFor(c space.Config) []transform.Spec {
	specs := make([]transform.Spec, len(k.Nests))
	factors := make(transform.Factors, 3*len(k.bindings))
	off := 0
	for ni := range k.Nests {
		order := k.orders[ni]
		spec := transform.Spec{Order: order[:len(order):len(order)]}
		if k.hasSCR {
			spec.ScalarReplace = k.value(c, k.scr) == 1
		}
		if k.hasVEC {
			spec.VectorHint = k.value(c, k.vec) == 1
		}
		m := 0
		for _, b := range k.bindings {
			if b.nest == ni {
				m++
			}
		}
		u, t, rt := factors[off:off:off+m], factors[off+m:off+m:off+2*m], factors[off+2*m:off+2*m:off+3*m]
		off += 3 * m
		for _, b := range k.bindings {
			if b.nest != ni {
				continue
			}
			u = append(u, transform.Factor{Var: b.vr, N: k.value(c, b.u)})
			t = append(t, transform.Factor{Var: b.vr, N: k.value(c, b.t)})
			rt = append(rt, transform.Factor{Var: b.vr, N: k.value(c, b.rt)})
		}
		spec.Unrolls, spec.CacheTiles, spec.RegTiles = u, t, rt
		specs[ni] = spec
	}
	return specs
}

// OMPEnabled reports whether the configuration turns the OpenMP pragmas
// on. Kernels without an OMP knob (LU) always use the target's threads.
func (k *Kernel) OMPEnabled(c space.Config) bool {
	if !k.hasOMP {
		return true
	}
	return k.value(c, k.omp) == 1
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
	return k.index(), nil
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
			{nest: 0, vr: "i", suffix: "I"}, {nest: 0, vr: "j", suffix: "J"}, {nest: 0, vr: "k", suffix: "K"},
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
	return k.index()
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
			{nest: 0, vr: "i", suffix: "I1"}, {nest: 0, vr: "j", suffix: "J1"},
			{nest: 1, vr: "i", suffix: "I2"}, {nest: 1, vr: "j", suffix: "J2"},
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
	return k.index()
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
			{nest: 0, vr: "j1", suffix: "J1"}, {nest: 0, vr: "j2", suffix: "J2"}, {nest: 0, vr: "i", suffix: "I"},
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
	return k.index()
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
			{nest: 0, vr: "k", suffix: "K"}, {nest: 0, vr: "i", suffix: "I"}, {nest: 0, vr: "j", suffix: "J"},
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
	return k.index()
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
// or a wire name, with the paper-size one; ByName resolves either name
// back to the kernel at its own size.
func sizedName(name string, n, paper int) string {
	if n == paper {
		return name
	}
	return fmt.Sprintf("%s_n%d", name, n)
}

// ByName returns the named kernel (case-insensitively): MM, ATAX, COR or
// LU at its paper input size, or, under the name sizedName gives an
// off-size kernel ("MM_n1000", N >= 1), at that size. Any other size
// suffix ("MM_n2000", "MM_n01") is refused.
func ByName(name string) (*Kernel, error) {
	base, size, sized := strings.Cut(strings.ToUpper(name), "_N")
	var build func(int) *Kernel
	var n int
	switch base {
	case "MM":
		build, n = MM, DefaultMMSize
	case "ATAX":
		build, n = ATAX, DefaultATAXSize
	case "COR":
		build, n = COR, DefaultCORSize
	case "LU":
		build, n = LU, DefaultLUSize
	default:
		return nil, fmt.Errorf("kernels: unknown kernel %q (known: MM, ATAX, COR, LU)", name)
	}
	if sized {
		var err error
		if n, err = strconv.Atoi(size); err != nil {
			n = 0
		}
	}
	if n >= 1 {
		if k := build(n); strings.EqualFold(k.Name, name) {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: %q is not a kernel name (want %s or %s_n<N>, N >= 1, not the paper size)", name, base, base)
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

	// models holds one sim.Model per nest for the kernel and target the
	// first evaluation saw; it is rebuilt if either changes.
	models atomic.Pointer[nestModels]
}

// nestModels is the per-(nest, target) simulator state of one Problem.
type nestModels struct {
	kernel *Kernel
	target sim.Target // machine and compiler; threads vary per evaluation
	nests  []*sim.Model
}

// NewProblem constructs a Problem. It computes nothing: the simulator
// state of each nest is built by the first evaluation.
func NewProblem(k *Kernel, tgt sim.Target) *Problem {
	return &Problem{Kernel: k, Target: tgt}
}

// nestModels returns the problem's per-nest simulator models.
func (p *Problem) nestModels() *nestModels {
	md := p.models.Load()
	if md != nil && md.kernel == p.Kernel && md.target.Machine == p.Target.Machine && md.target.Compiler == p.Target.Compiler {
		return md
	}
	md = &nestModels{kernel: p.Kernel, target: p.Target, nests: make([]*sim.Model, len(p.Kernel.Nests))}
	for i, n := range p.Kernel.Nests {
		md.nests[i] = sim.NewModel(n, p.Target.Machine, p.Target.Compiler)
	}
	p.models.Store(md)
	return md
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

// Pure implements search.Pure: the simulator keys its noise by the
// configuration, and the per-nest models are built once and then only
// read.
func (p *Problem) Pure() {}

// Evaluate compiles and runs the configuration on the simulated target.
func (p *Problem) Evaluate(c space.Config) (runTime, cost float64) {
	if err := p.Kernel.Space().Validate(c); err != nil {
		panic(fmt.Sprintf("kernels: %v", err))
	}
	specs := p.Kernel.SpecsFor(c)
	threads := p.Target.Threads
	if !p.ForceOMP && !p.Kernel.OMPEnabled(c) {
		threads = 1
	}
	models := p.nestModels()
	m := p.Target.Machine
	run := 0.0
	compile := m.CompileBaseS
	for ni, spec := range specs {
		cost, err := models.nests[ni].Evaluate(spec, threads)
		if err != nil {
			panic(fmt.Sprintf("kernels: evaluating %s nest %d: %v", p.Kernel.Name, ni, err))
		}
		run += cost.RunSeconds
		// The nests compile into one binary: count the base once and the
		// per-nest code-growth components once each.
		compile += cost.CompileSeconds - m.CompileBaseS
	}
	return run, run + compile
}
