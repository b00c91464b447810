// Package miniapps models the paper's two mini-application tuning
// problems, which the paper drives through OpenTuner rather than Orio:
//
//   - HPL: the High Performance LINPACK benchmark with 15 tunable
//     parameters (block size, process grid, panel factorization,
//     broadcast algorithm, lookahead, swapping, ...). The run time model
//     combines the classical HPL decomposition (BLAS-3 compute + panel
//     factorization + communication) with a machine "library
//     personality": platform-specific BLAS/MPI idiosyncrasies that make
//     HPL's cross-machine correlation weak, exactly as the paper's HPL
//     correlation panels show.
//
//   - RT (Raytracer): tuning g++ compiler flags (143 on/off flags and
//     104 numeric --param settings common to all test platforms). A few
//     flags carry large, mostly machine-portable effects; most are
//     nearly neutral; a small set interacts with the machine, so
//     cross-machine correlation is high but not perfect.
//
// Both expose the same Evaluate interface as internal/kernels and plug
// into the search algorithms and the transfer experiments unchanged.
package miniapps

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/space"
)

// personality returns a stable machine-specific coefficient in [-1, 1]
// for the given tag, modeling platform idiosyncrasies (BLAS kernels, MPI
// stack, code generation) that are not captured by the shared structure.
func personality(m machine.Machine, tag string) float64 {
	h := rng.Hash64(m.Name + "|" + tag)
	return float64(int64(h%2000001)-1000000) / 1000000
}

// shared returns a stable machine-independent coefficient in [-1, 1].
func shared(tag string) float64 {
	h := rng.Hash64("shared|" + tag)
	return float64(int64(h%2000001)-1000000) / 1000000
}

// App is a tunable mini-application: a parameter space plus a run-time
// model parameterized by the machine.
type App struct {
	Name string
	spc  *space.Space
	// model returns the noise-free run time of a configuration on
	// machine m. A Problem calls it once, on its first evaluation, so a
	// model's per-machine table is built only for a problem that runs.
	model func(m machine.Machine) func(c space.Config) float64
	// evalOverhead returns the non-run cost of one evaluation on m
	// (e.g. recompiling the raytracer with new flags).
	evalOverhead func(c space.Config, m machine.Machine) float64
}

// Space returns the application's configuration space.
func (a *App) Space() *space.Space { return a.spc }

// Problem binds an App to a machine, implementing the search Problem
// interface.
type Problem struct {
	App     *App
	Machine machine.Machine

	runOnce sync.Once
	run     func(c space.Config) float64 // App.model(Machine), built by runOnce
}

// NewProblem constructs a Problem.
func NewProblem(a *App, m machine.Machine) *Problem {
	return &Problem{App: a, Machine: m}
}

// Name identifies the problem.
func (p *Problem) Name() string { return p.App.Name + "@" + p.Machine.Name }

// Space returns the configuration space.
func (p *Problem) Space() *space.Space { return p.App.spc }

// Pure implements search.Pure: the noise is keyed by the configuration,
// and the machine's model is built once and then only read.
func (p *Problem) Pure() {}

// Evaluate returns the measured run time and the total evaluation cost.
func (p *Problem) Evaluate(c space.Config) (runTime, cost float64) {
	if err := p.App.spc.Validate(c); err != nil {
		panic(fmt.Sprintf("miniapps: %v", err))
	}
	p.runOnce.Do(func() { p.run = p.App.model(p.Machine) })
	run := p.run(c)
	key := rng.HashInts64("miniapp|"+p.App.Name+"|"+p.Machine.Name, c)
	run *= rng.New(key).LogNormal(0, p.Machine.NoiseSigma)
	overhead := 0.0
	if p.App.evalOverhead != nil {
		overhead = p.App.evalOverhead(c, p.Machine)
	}
	return run, float64(run) + overhead
}

// ---------------------------------------------------------------------------
// HPL

// hplN is the fixed problem size (a hyperparameter held constant across
// machines, like the kernel input sizes).
const hplN = 20000.0

// HPL returns the High Performance LINPACK tuning problem with its 15
// parameters (the count the paper reports).
func HPL() *App {
	spc := space.New(
		space.NewExplicit("NB", 8, 16, 32, 48, 64, 96, 128, 160, 192, 224, 256, 384, 512),
		space.NewExplicit("P", 1, 2, 3, 4, 6, 8),
		space.NewExplicit("Q", 1, 2, 3, 4, 6, 8),
		space.NewCategorical("PFACT", "left", "crout", "right"),
		space.NewExplicit("NBMIN", 1, 2, 4, 8, 16),
		space.NewExplicit("NDIV", 2, 3, 4, 8),
		space.NewCategorical("RFACT", "left", "crout", "right"),
		space.NewCategorical("BCAST", "1rg", "1rM", "2rg", "2rM", "lng", "lnM"),
		space.NewExplicit("DEPTH", 0, 1, 2),
		space.NewCategorical("SWAP", "bin-exch", "long", "mix"),
		space.NewExplicit("SWAPTHR", 16, 32, 64, 96, 128, 192, 256),
		space.NewBoolean("L1TRANS"),
		space.NewBoolean("UTRANS"),
		space.NewBoolean("EQUIL"),
		space.NewExplicit("ALIGN", 4, 8, 16),
	)
	return &App{
		Name: "HPL",
		spc:  spc,
		model: func(m machine.Machine) func(space.Config) float64 {
			return func(c space.Config) float64 { return hplRun(c, m) }
		},
		// HPL is reconfigured via HPL.dat: no recompilation, only a
		// small setup cost per evaluation.
		evalOverhead: func(_ space.Config, m machine.Machine) float64 {
			return 0.2 * m.CompileBaseS
		},
	}
}

func hplRun(c space.Config, m machine.Machine) float64 {
	s := hplSpace(c)
	nb := float64(s.nb)
	p := float64(s.p)
	q := float64(s.q)
	procs := p * q
	cores := float64(m.Cores)
	if procs > cores {
		// Oversubscription costs, but SMT absorbs much of it and the MPI
		// stack/OS scheduler determine how badly it hurts — a per-platform
		// property. The penalty is bounded: ranks time-share.
		sensitivity := 1 + float64(0.8*personality(m, "oversub"))
		procs = cores * math.Max(0.45, math.Pow(cores/procs, sensitivity))
	}

	clock := m.ClockGHz * 1e9
	peak := procs * m.FlopsPerCy * clock
	flops := 2.0 / 3.0 * hplN * hplN * hplN

	// BLAS-3 efficiency peaks at a block size matched to the cache
	// hierarchy and degrades log-quadratically away from it.
	nbOpt := math.Sqrt(m.L2Bytes()/(3*8)) * (1 + float64(float64(m.VectorWidth)/16)) *
		math.Pow(2, 0.8*personality(m, "blas-nbopt"))
	d := math.Log2(nb) - math.Log2(nbOpt)
	eBlas := 0.85 * math.Exp(-d*d/20)

	// Library personality: each platform's BLAS favors some block-size
	// buckets and factorization variants for reasons outside the shared
	// model. This is what makes HPL correlate weakly across machines.
	// The library personality is amplified on platforms with immature
	// BLAS/MPI stacks (tracked by CodeGenSigma, the same maturity signal
	// the compiler model uses).
	libScale := 1 + float64(3*m.CodeGenSigma)
	pers := float64(libScale * (float64(0.40*personality(m, fmt.Sprintf("blas-nb-%d", s.nb))) +
		float64(0.22*personality(m, "pfact-"+s.pfact)) +
		float64(0.18*personality(m, "rfact-"+s.rfact)) +
		float64(0.12*personality(m, fmt.Sprintf("nbmin-%d", s.nbmin))) +
		float64(0.10*personality(m, fmt.Sprintf("ndiv-%d", s.ndiv))) +
		float64(0.25*personality(m, fmt.Sprintf("grid-%dx%d", s.p, s.q)))))
	eBlas *= math.Max(0.2, 1+pers)

	compute := flops / (peak * math.Max(0.05, eBlas))

	// Panel factorization: serial fraction growing with NB.
	panel := float64(hplN * hplN * nb / (m.FlopsPerCy * clock) * 2e-5 * (1 + float64(0.2*shared("pf-"+s.pfact))))

	// Communication: ring broadcasts over the grid; tall grids pay more
	// on the panel broadcast, flat grids on the update. Shared-memory
	// MPI costs scale with memory latency.
	steps := hplN / nb
	msgCost := m.MemLatNs * 1e-9 * 40
	aspect := math.Abs(math.Log2(math.Max(p, 1) / math.Max(q, 1) * 2)) // prefer P:Q near 1:2
	bcastEff := 1 + float64(0.15*shared("bcast-"+s.bcast)) + float64(0.6*personality(m, "bcast-"+s.bcast+fmt.Sprintf("-q%d", s.q)))
	comm := float64(steps * (p + q) * msgCost * (1 + float64(0.4*aspect)) * math.Max(0.3, bcastEff))
	comm += float64(steps * hplN * nb * 8 / (m.MemBWGBs * 1e9) * 0.5) // swap traffic

	// Lookahead overlaps broadcast with update.
	overlap := 1 - float64(0.18*float64(s.depth)*(1-1/math.Max(1, p*q/4)))
	comm *= math.Max(0.4, overlap)

	// Swap variant and small switches.
	comm = float64(comm * (1 + float64(0.08*shared("swap-"+s.swap)) + float64(0.25*personality(m, "swap-"+s.swap))))
	small := 1 + float64(0.015*float64(s.l1trans)) + float64(0.01*float64(s.utrans)) - float64(0.01*float64(s.equil)) +
		float64(0.02*personality(m, fmt.Sprintf("align-%d", s.align)))

	t := (compute + panel + comm) * math.Max(0.5, small)

	// Platforms with immature numerical libraries (FloorEfficiency set,
	// i.e. X-Gene with its reference BLAS) hit a low performance ceiling
	// whatever the configuration, and their weak pipelines bound how bad
	// a sane configuration can get — the same landscape compression the
	// kernel simulator applies.
	if m.FloorEfficiency > 0 {
		floor := flops / (peakAll(m) * 0.35)
		if t < floor {
			t = floor
		}
		if t > floor*8 {
			t = floor * 8
		}
	}
	return t
}

// peakAll is the machine's whole-node double-precision peak in flop/s.
func peakAll(m machine.Machine) float64 {
	return float64(m.Cores) * m.FlopsPerCy * m.ClockGHz * 1e9
}

// hplSettings is the decoded HPL configuration.
type hplSettings struct {
	nb, p, q               int
	pfact, rfact           string
	nbmin, ndiv            int
	bcast, swap            string
	depth, swapthr         int
	l1trans, utrans, equil int
	align                  int
}

func hplSpace(c space.Config) hplSettings {
	// Decoding relies on the parameter order of HPL()'s space.
	get := func(i int) int { return c[i] }
	nbVals := []int{8, 16, 32, 48, 64, 96, 128, 160, 192, 224, 256, 384, 512}
	pq := []int{1, 2, 3, 4, 6, 8}
	pfacts := []string{"left", "crout", "right"}
	nbmins := []int{1, 2, 4, 8, 16}
	ndivs := []int{2, 3, 4, 8}
	bcasts := []string{"1rg", "1rM", "2rg", "2rM", "lng", "lnM"}
	depths := []int{0, 1, 2}
	swaps := []string{"bin-exch", "long", "mix"}
	swapthrs := []int{16, 32, 64, 96, 128, 192, 256}
	aligns := []int{4, 8, 16}
	return hplSettings{
		nb:      nbVals[get(0)],
		p:       pq[get(1)],
		q:       pq[get(2)],
		pfact:   pfacts[get(3)],
		nbmin:   nbmins[get(4)],
		ndiv:    ndivs[get(5)],
		rfact:   pfacts[get(6)],
		bcast:   bcasts[get(7)],
		depth:   depths[get(8)],
		swap:    swaps[get(9)],
		swapthr: swapthrs[get(10)],
		l1trans: get(11),
		utrans:  get(12),
		equil:   get(13),
		align:   aligns[get(14)],
	}
}

// ---------------------------------------------------------------------------
// Raytracer (g++ flag tuning)

// Real gcc 4.4-era -f flags form the head of the flag list; the tail is
// synthesized to reach the 143 flags the paper extracted as the common
// set across its platforms.
var gccFlags = []string{
	"funroll-loops", "funroll-all-loops", "finline-functions",
	"fomit-frame-pointer", "ftree-vectorize", "ffast-math",
	"funsafe-math-optimizations", "fno-math-errno", "freciprocal-math",
	"ffinite-math-only", "fgcse", "fgcse-lm", "fgcse-sm", "fgcse-las",
	"fipa-pta", "fipa-cp", "fipa-matrix-reorg", "ftree-loop-linear",
	"ftree-loop-distribution", "ftree-loop-im", "ftree-pre", "ftree-vrp",
	"fprefetch-loop-arrays", "fpeel-loops", "fsplit-ivs-in-unroller",
	"fvariable-expansion-in-unroller", "freorder-blocks",
	"freorder-functions", "fschedule-insns", "fschedule-insns2",
	"fsched-interblock", "fsched-spec", "fstrict-aliasing",
	"fmerge-constants", "fmodulo-sched", "fmodulo-sched-allow-regmoves",
	"fbranch-target-load-optimize", "fcaller-saves", "fcrossjumping",
	"fcse-follow-jumps", "fcse-skip-blocks", "fdelete-null-pointer-checks",
	"fdevirtualize", "fexpensive-optimizations", "fforward-propagate",
	"fguess-branch-probability", "fif-conversion", "fif-conversion2",
	"findirect-inlining", "foptimize-sibling-calls", "fregmove",
	"frename-registers", "frerun-cse-after-loop", "fthread-jumps",
	"ftree-builtin-call-dce", "ftree-ccp", "ftree-ch", "ftree-copyrename",
	"ftree-dce", "ftree-dominator-opts", "ftree-dse", "ftree-fre",
	"ftree-sink", "ftree-sra", "ftree-switch-conversion", "ftree-ter",
	"funswitch-loops", "fweb", "fwhole-program", "falign-functions",
	"falign-jumps", "falign-labels", "falign-loops", "fsplit-wide-types",
	"fstrict-overflow", "ftoplevel-reorder", "ftree-cselim",
	"ftree-loop-ivcanon", "ftree-reassoc", "fvect-cost-model",
}

// realParams are gcc --param settings with genuine tuning relevance.
var realParams = []string{
	"max-inline-insns-auto", "max-inline-insns-single", "inline-unit-growth",
	"large-function-growth", "max-unroll-times", "max-unrolled-insns",
	"max-average-unrolled-insns", "max-peel-times", "max-peeled-insns",
	"max-completely-peel-times", "prefetch-latency",
	"simultaneous-prefetches", "l1-cache-size", "l1-cache-line-size",
	"l2-cache-size", "max-gcse-memory", "max-pending-list-length",
	"max-reload-search-insns", "max-cselib-memory-locations",
	"max-sched-ready-insns",
}

// RTFlagCount and RTParamCount are the paper's reported common-set sizes.
const (
	RTFlagCount  = 143
	RTParamCount = 104
)

// rtParamLevels is the number of levels of each numeric --param setting.
const rtParamLevels = 10

// RT returns the raytracer compiler-flag tuning problem: 143 binary g++
// flags plus 104 numeric --param settings (10 levels each).
func RT() *App {
	params := make([]space.Param, 0, RTFlagCount+RTParamCount)
	flagNames := make([]string, RTFlagCount)
	for i := 0; i < RTFlagCount; i++ {
		name := fmt.Sprintf("fopt-%03d", i)
		if i < len(gccFlags) {
			name = gccFlags[i]
		}
		flagNames[i] = name
		params = append(params, space.NewBoolean(name))
	}
	paramNames := make([]string, RTParamCount)
	for i := 0; i < RTParamCount; i++ {
		name := fmt.Sprintf("param-%03d", i)
		if i < len(realParams) {
			name = realParams[i]
		}
		paramNames[i] = name
		params = append(params, space.NewIntRange(name, 0, rtParamLevels-1))
	}
	spc := space.New(params...)
	return &App{
		Name: "RT",
		spc:  spc,
		model: func(m machine.Machine) func(space.Config) float64 {
			return newRTModel(m, flagNames, paramNames).run
		},
		// Every configuration requires recompiling the raytracer.
		evalOverhead: func(_ space.Config, m machine.Machine) float64 {
			return 12 * m.CompileBaseS
		},
	}
}

// rtModel models the render time under the flag configuration on one
// machine. A small set of flags carries most of the effect; their
// strength is mostly shared across machines, with machine-specific
// components for the flags whose value genuinely depends on the
// microarchitecture. Every coefficient depends on the machine and the
// parameter alone, so newRTModel computes them once: run only adds up
// the terms of the levels a configuration chose.
type rtModel struct {
	m    machine.Machine
	base float64
	// flagEff[i] is flag i's term of the log run time when it is on.
	flagEff []float64
	// paramCost[j][lv] is numeric parameter j's term at level lv.
	paramCost [][rtParamLevels]float64
}

func newRTModel(m machine.Machine, flagNames, paramNames []string) *rtModel {
	r := &rtModel{
		m: m,
		base: 3e11 / (m.IssueWidth * m.ClockGHz * 1e9 *
			(float64(m.OoOWindow)/(float64(m.OoOWindow)+24) + 0.2)),
		flagEff:   make([]float64, len(flagNames)),
		paramCost: make([][rtParamLevels]float64, len(paramNames)),
	}

	// How strongly a flag's effect depends on the machine tracks the
	// maturity of the compiler backend (CodeGenSigma): on X-Gene's
	// erratic ARM64 backend the same flag can swing either way.
	peScale := 1 + float64(15*m.CodeGenSigma)

	for i, name := range flagNames {
		sh := shared("rt-flag-" + name)
		pe := personality(m, "rt-flag-"+name) * peScale
		switch {
		case i < 12:
			// The strong flags: up to ~10% each, mostly portable.
			r.flagEff[i] = float64(-0.08*(0.5+float64(0.5*sh))) + float64(0.025*pe)
		case i < 40:
			r.flagEff[i] = float64(0.02*sh) + float64(0.008*pe)
		default:
			// The long tail is nearly neutral.
			r.flagEff[i] = float64(0.004*sh) + float64(0.002*pe)
		}
	}
	for j, name := range paramNames {
		sh := shared("rt-param-" + name)
		pe := personality(m, "rt-param-"+name) * peScale
		// Each numeric parameter has a preferred level; deviation costs
		// quadratically, with mostly-shared optima.
		opt := 4.5 + float64(3*sh) + float64(1.2*pe)
		weight := 0.0025
		if j < 10 {
			weight = 0.01 // the real unroll/inline params matter more
		}
		for level := range r.paramCost[j] {
			lv := float64(level)
			r.paramCost[j][level] = weight * (lv - opt) * (lv - opt) / 20
		}
	}
	return r
}

// run returns the noise-free render time of c: the flags' and the
// parameters' terms summed in parameter order, then the interactions.
func (r *rtModel) run(c space.Config) float64 {
	logF := 0.0
	for i, eff := range r.flagEff {
		if c[i] != 0 {
			logF += eff
		}
	}
	for j := range r.paramCost {
		logF += r.paramCost[j][c[len(r.flagEff)+j]]
	}
	// Interactions: unrolling and vectorization compound on wide-vector
	// machines; scheduling flags interact with in-order pipelines.
	if c[0] == 1 && c[4] == 1 { // funroll-loops + ftree-vectorize
		logF -= float64(0.02 * float64(r.m.VectorWidth) / 4)
	}
	if c[0] == 1 && r.m.OoOWindow < 32 { // unrolling on in-order cores
		logF += 0.05
	}
	return r.base * math.Exp(logF)
}
