// Package sim is the analytical performance simulator standing in for the
// paper's physical testbed. Given a kernel loop nest, a transformation
// spec (one point of the autotuning search space), a machine, and a
// compiler, it produces a modeled run time and compile time.
//
// The model is a roofline-style combination of:
//
//   - compute time: floating-point work divided by the machine's issue
//     rate, modulated by SIMD vectorization (compiler- and layout-
//     dependent), instruction-level parallelism (out-of-order window and
//     unrolling), register spill, and instruction-cache pressure from
//     code growth;
//   - memory time: per-level cache traffic from the capacity-fit
//     footprint analysis in internal/cache, costed with per-level
//     latencies/bandwidths and a TLB model.
//
// Compiler behavior matters: GCC 4.4.7 vectorizes weakly, so manual
// transformations pay off; icc 15 vectorizes aggressively, so manual
// source-level rewrites can interfere with it — on the Xeon Phi this makes
// the untransformed matrix-multiply variant the fastest, exactly as the
// paper observed.
//
// Measurement noise is a deterministic log-normal factor keyed by
// (machine, compiler, threads, kernel, configuration): the same
// configuration always "measures" the same, which implements the paper's
// common-random-numbers comparison methodology.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/transform"
)

// Target is the execution environment of one evaluation: machine,
// compiler, and OpenMP thread count (1 = serial).
type Target struct {
	Machine  machine.Machine
	Compiler machine.Compiler
	Threads  int
}

// Key returns a stable identity string for the target.
func (t Target) Key() string {
	return t.Machine.Name + "/" + t.Compiler.Name + "/t" + strconv.Itoa(t.threads())
}

func (t Target) threads() int {
	if t.Threads < 1 {
		return 1
	}
	return t.Threads
}

// Cost is the modeled cost of one evaluation.
type Cost struct {
	RunSeconds     float64 // measured run time (with noise)
	CompileSeconds float64 // time to build the variant
	ComputeSeconds float64 // noise-free compute component
	MemorySeconds  float64 // noise-free memory component
}

// Total returns the full evaluation cost: compiling the variant plus
// running it once, which is what the search pays per configuration.
func (c Cost) Total() float64 { return c.RunSeconds + c.CompileSeconds }

// structural is the noise-free modeled time of one variant.
type structural struct {
	serial, compute, mem float64
	interference         float64
	flops                float64
	unrollProduct        float64
	parTrip              float64
	parTriangular        bool
}

// Model is one base nest bound to a machine and a compiler: the state
// every evaluation of the nest on that target shares. Whether the nest
// is rectangular, its efficiency floor, its cache levels and the
// compiler's own variant of it are computed once, by the first
// evaluation that needs them. A Model is safe for concurrent use.
type Model struct {
	base *ir.Nest
	m    machine.Machine
	comp machine.Compiler

	once   sync.Once
	rect   bool
	floor  float64
	order  []string // base loop variables, outermost first
	levels []cache.Level

	autoOnce sync.Once
	auto     structural
	autoErr  error
}

// NewModel binds base to a machine and compiler. It computes nothing;
// the first evaluation does.
func NewModel(base *ir.Nest, m machine.Machine, comp machine.Compiler) *Model {
	return &Model{base: base, m: m, comp: comp}
}

func (md *Model) init() {
	md.once.Do(func() {
		m := md.m
		md.rect = isRectangular(md.base)
		if m.FloorEfficiency > 0 {
			// The floor is computed from the base nest's work so that
			// every variant of the same kernel shares one crisp ceiling.
			md.floor = md.base.TotalFlops() / (m.FloorEfficiency * m.FlopsPerCy * (m.ClockGHz * 1e9))
		}
		for _, l := range md.base.Loops {
			md.order = append(md.order, l.Var)
		}
		md.levels = []cache.Level{
			{Name: "L1", CapacityBytes: m.L1Bytes()},
			{Name: "L2", CapacityBytes: m.L2Bytes()},
		}
		if l3 := m.L3BytesPerCore(); l3 > 0 {
			md.levels = append(md.levels, cache.Level{Name: "L3", CapacityBytes: l3})
		}
		// The TLB is modeled as one more capacity-fit level whose
		// "traffic" counts bytes that require fresh page translations.
		md.levels = append(md.levels, cache.Level{
			Name:          "TLB",
			CapacityBytes: float64(m.TLBEntries) * 4096,
		})
	})
}

// autoVariant returns the structural time of the compiler's own variant
// (the untransformed source), computed once.
func (md *Model) autoVariant() (structural, error) {
	md.autoOnce.Do(func() {
		md.auto, md.autoErr = md.structuralTime(transform.Spec{}, 0)
	})
	return md.auto, md.autoErr
}

// variants holds scratch nests for structuralTime: a transformed variant
// lives only for the call that analyzes it.
var variants = sync.Pool{New: func() any { return new(ir.Nest) }}

// getVariant returns a scratch nest holding base transformed by spec;
// putVariant hands it back.
func getVariant(base *ir.Nest, spec transform.Spec) (*ir.Nest, error) {
	n := variants.Get().(*ir.Nest)
	if err := transform.ApplyTo(n, base, spec); err != nil {
		putVariant(n)
		return nil, err
	}
	return n, nil
}

func putVariant(n *ir.Nest) {
	*n = ir.Nest{Loops: n.Loops[:0]}
	variants.Put(n)
}

// structuralTime models the variant's serial execution time without the
// code-generation lottery, efficiency floor, parallelization, or
// measurement noise. manual is manualMagnitude(spec).
func (md *Model) structuralTime(spec transform.Spec, manual float64) (structural, error) {
	eff, own := md.effectiveSpec(spec)
	nest, err := getVariant(md.base, eff)
	if err != nil {
		return structural{}, err
	}
	defer putVariant(nest)

	m := md.m
	an, err := cache.Analyze(nest, cache.Params{
		LineBytes:        64,
		Levels:           md.levels,
		CapacityFraction: 0.75,
	})
	if err != nil {
		return structural{}, err
	}
	tlbTraffic := an.Traffic[len(an.Traffic)-1]
	memTraffic := an.Traffic[:len(an.Traffic)-1]

	clock := m.ClockGHz * 1e9

	// --- Compute component -------------------------------------------------
	// Vectorization: the compiler reaches a fraction of the SIMD peak on
	// the vectorizable references; manual source-level transformations
	// interfere with aggressive vectorizers in proportion to their
	// magnitude and to how much the machine relies on vectors.
	vecReliance := float64(m.VectorWidth) / 4.0
	// Interference saturates quickly: once the source has been rewritten
	// at all, the vectorizer's loop recognition is already broken, so
	// every nontrivial manual variant pays roughly the full penalty (this
	// is why the paper's Phi MM experiments found the untransformed
	// default alone at the top, with the manual variants roughly flat).
	saturation := 1 - math.Exp(-manual*16)
	interference := math.Min(0.95, md.comp.Interference*vecReliance*4*saturation)
	autoVec := md.comp.AutoVec
	if spec.VectorHint {
		// ivdep/simd pragmas rescue vectorization a weak compiler misses;
		// for an aggressive vectorizer they are nearly a no-op.
		autoVec += float64((1 - autoVec) * (1 - autoVec) * 0.5)
		interference *= 0.85
	}
	vecEff := autoVec * (1 - interference)
	trim := an.InnermostTrip / (an.InnermostTrip + float64(m.VectorWidth))
	vecSpeedup := 1 + float64(float64(m.VectorWidth-1)*vecEff*an.VecFraction*trim)

	// ILP: out-of-order machines extract parallelism on their own;
	// in-order-leaning machines (Xeon Phi, X-Gene) need unrolling.
	ilpBase := float64(m.OoOWindow) / (float64(m.OoOWindow) + 24)
	ilp := math.Min(1, ilpBase+float64(0.12*math.Log2(math.Min(an.UnrollProduct, 64))))

	// Register spill: the physical SIMD register file holds
	// FPRegisters*VectorWidth elements regardless of how well the compiler
	// vectorizes (renaming gives scalar code similar headroom).
	regCap := float64(float64(m.FPRegisters) * float64(m.VectorWidth) * 0.75)
	spillElems := math.Max(0, an.RegPressure-regCap)
	spillOps := float64(spillElems * 2 * an.BlockIters)

	// Instruction-cache/branch pressure from code growth.
	excess := math.Max(0, math.Log2(an.UnrollProduct)-4)
	icachePenalty := 1 + float64(m.UnrollPenalty*excess*excess)

	// Unscheduled register-block stalls: in-order cores with weak
	// compilers stall on the dependency chains of large jam blocks.
	blockSize := an.BodyExecs / math.Max(1, an.BlockIters)
	blockPenalty := 1 + float64(m.BlockSchedPenalty*math.Max(0, blockSize-1))

	// Scalar replacement: with the SCR knob the analyzed register reuse is
	// fully realized; without it the compiler still catches most but not
	// all of the reuse, so loads drift toward the no-reuse count.
	regLoads := an.RegLoads
	if !spec.ScalarReplace {
		regLoads = float64(0.85*an.RegLoads) + float64(0.15*an.NaiveLoads)
	}

	flopOps := an.Flops / vecSpeedup
	memOps := (regLoads + an.RegStores) / vecSpeedup
	addrOps := 0.5 * (regLoads + an.RegStores) / math.Max(1, an.UnrollProduct/4)
	totalOps := flopOps + memOps + addrOps + an.LoopOverheadOps + spillOps
	computeSec := totalOps / (m.IssueWidth * ilp * clock) * icachePenalty * blockPenalty

	// --- Memory component ---------------------------------------------------
	// Per-link cost: latency (overlapped by memory-level parallelism) plus
	// bandwidth occupancy.
	mlp := 4 + float64(float64(m.OoOWindow)/16) // x/16 compiles to a multiply
	linkLat := [3]float64{m.L2LatCy, m.L3LatCy, m.MemLatNs * m.ClockGHz}
	linkBW := [3]float64{clock * 32, clock * 16, m.MemBWGBs * 1e9}
	links := 3
	if m.L3BytesPerCore() == 0 {
		// No L3: L2 misses go straight to memory.
		linkLat = [3]float64{m.L2LatCy, m.MemLatNs * m.ClockGHz}
		linkBW = [3]float64{clock * 32, m.MemBWGBs * 1e9}
		links = 2
	}
	memSec := 0.0
	for i, traffic := range memTraffic {
		lat, bw := linkLat[links-1], linkBW[links-1]
		if i < links {
			lat, bw = linkLat[i], linkBW[i]
		}
		lines := traffic / 64
		memSec += lines * lat / clock / mlp
		memSec += traffic / bw
	}
	memSec += tlbTraffic / 4096 * m.TLBWalkCy / clock
	// L1 hits: cheap but not free.
	memSec += (regLoads + an.RegStores) * 8 / (clock * 64)

	serial := math.Max(computeSec, memSec) + float64(0.3*math.Min(computeSec, memSec))
	// The OpenMP pragma lands on the outermost loop of the user-written
	// (Orio-generated) code: manual cache tiling hoists a tile loop to
	// that position and coarsens the parallel chunks. The compiler's own
	// automatic tiling stays inside the parallel loop, so it is excluded
	// here. Without automatic additions the user's variant is the one
	// just analyzed.
	userNest := nest
	if !own {
		if userNest, err = getVariant(md.base, spec); err != nil {
			return structural{}, err
		}
		defer putVariant(userNest)
	}
	parTrip, parTri, err := parallelLoop(userNest)
	if err != nil {
		return structural{}, err
	}
	return structural{
		serial: serial, compute: computeSec, mem: memSec,
		interference: interference, flops: an.Flops,
		unrollProduct: an.UnrollProduct,
		parTrip:       parTrip, parTriangular: parTri,
	}, nil
}

// parallelLoop identifies the loop an OpenMP pragma would parallelize —
// the outermost loop the write references vary with (outer loops that do
// not index the written data carry dependences, like LU's k) — and
// returns its trip count plus whether inner bounds depend on it (a
// triangular nest whose chunks have unequal work).
func parallelLoop(n *ir.Nest) (trip float64, triangular bool, err error) {
	if len(n.Loops) > cache.MaxLoops {
		return 0, false, fmt.Errorf("sim: %s has %d loops, at most %d supported", n.Name, len(n.Loops), cache.MaxLoops)
	}
	var buf [cache.MaxLoops]uint64
	deps := buf[:len(n.Loops)]
	cache.BoundDeps(n, deps)
	var writes uint64 // loops some write reference varies along
	for _, s := range n.Body {
		for _, r := range s.Refs {
			if r.Write {
				writes |= cache.Varies(cache.Uses(n, r), deps)
			}
		}
	}
	if writes == 0 {
		return 1, false, nil
	}
	pl := bits.TrailingZeros64(writes)
	for j := pl + 1; j < len(n.Loops); j++ {
		for _, e := range [2]ir.Expr{n.Loops[j].Lower, n.Loops[j].Upper} {
			for _, t := range e.Terms {
				if k := n.LoopIndex(t.Sym); k >= 0 && (k == pl || deps[k]&(1<<pl) != 0) {
					triangular = true
				}
			}
		}
	}
	return n.TripCount(pl), triangular, nil
}

// Evaluate transforms base according to spec and models its execution on
// the target. The result is deterministic in all arguments.
func Evaluate(base *ir.Nest, spec transform.Spec, tgt Target) (Cost, error) {
	return NewModel(base, tgt.Machine, tgt.Compiler).Evaluate(spec, tgt.Threads)
}

// Evaluate transforms the model's nest according to spec and models its
// execution on the model's target with the given OpenMP thread count.
// The result is deterministic in all arguments.
func (md *Model) Evaluate(spec transform.Spec, threads int) (Cost, error) {
	tgt := Target{Machine: md.m, Compiler: md.comp, Threads: threads}
	if !md.m.SupportsCompiler(md.comp) {
		return Cost{}, fmt.Errorf("sim: compiler %s not available on %s",
			md.comp.Name, md.m.Name)
	}
	md.init()
	m := md.m
	base := md.base

	manual := manualMagnitude(spec)
	st, err := md.structuralTime(spec, manual)
	if err != nil {
		return Cost{}, err
	}
	serial := st.serial
	computeSec, memSec := st.compute, st.mem

	// Re-optimization safety net: an aggressive restructuring compiler
	// (icc) re-recognizes rectangular nests whatever the source-level
	// rewrite and recovers close to its own automatic code, paying only
	// the interference overhead. This flattens the manual region of the
	// landscape — on the Xeon Phi MM experiments every manual variant
	// lands slightly above the untransformed default, none below it,
	// exactly as the paper reports.
	if md.comp.AutoTile > 1 && md.rect && manual > 0 {
		auto, aerr := md.autoVariant()
		if aerr == nil {
			net := auto.serial * (1.02 + float64(0.5*st.interference))
			if serial > net {
				serial = net
				// The variant effectively runs the compiler's own code;
				// use the auto compute/memory split, scaled to the net.
				scale := net / auto.serial
				computeSec = auto.compute * scale
				memSec = auto.mem * scale
			}
		}
	}

	// The configuration's canonical key feeds both deterministic draws.
	var keyBuf [256]byte
	key := appendSpecKey(keyBuf[:0], spec)

	// Per-variant code-generation quality lottery: deterministic in the
	// configuration (a property of the generated code, not of a run). On
	// machines with mature compiler backends this is a small wobble; on
	// X-Gene's 2013-era ARM64 backend it dominates the ranking of
	// mid-range variants — scheduling luck affects both the instruction
	// stream and how well memory accesses pipeline — which is why
	// knowledge transfer to ARM fails in the paper.
	if m.CodeGenSigma > 0 {
		cgKey := rng.NewHasher().String("codegen|").String(m.Name).String("|").
			String(md.comp.Name).String("|").String(base.Name).String("|").Bytes(key).Sum64()
		serial *= rng.New(cgKey).LogNormal(0, m.CodeGenSigma)
	}
	// Physical efficiency ceiling: no variant can beat the pipeline's
	// sustainable fraction of peak (applies after the code-generation
	// lottery — it is a hardware limit, not a compiler property).
	if m.FloorEfficiency > 0 {
		floor := md.floor
		if serial < floor {
			serial = floor
		}
		if m.SlowdownCap > 0 && serial > floor*m.SlowdownCap {
			serial = floor * m.SlowdownCap
		}
	}

	threadsF := float64(tgt.threads())
	maxPar := float64(m.Cores * m.SMTPerCore)
	effThreads := math.Min(threadsF, maxPar)
	compSpeedup := 1 + float64((effThreads-1)*m.ParallelEff)
	// Memory bandwidth saturates well below full thread count.
	memSpeedup := math.Min(compSpeedup, 1+float64(3*m.ParallelEff))
	frac := 0.0
	if computeSec+memSec > 0 {
		frac = computeSec / (computeSec + memSec)
	}
	parSpeedup := float64(frac*compSpeedup) + float64((1-frac)*memSpeedup)
	if effThreads > 1 {
		// Static-schedule load imbalance: with few chunks per thread the
		// slowest thread dominates; triangular nests additionally give
		// chunks unequal work. Cache tiling hoists a tile loop to the
		// parallel position, so large tiles coarsen the chunks — the
		// interaction that makes 60-thread Phi behavior diverge from the
		// 8-thread source machines on COR.
		granularity := math.Min(1, effThreads/math.Max(1, st.parTrip))
		coeff := 0.4
		if st.parTriangular {
			coeff = 1.6
		}
		parSpeedup /= 1 + float64(coeff*granularity)
	}
	run := serial / parSpeedup

	// The noise key hashes tgt.Key() + "|" + base.Name + "|" + SpecKey.
	var threadBuf [20]byte
	noiseKey := rng.NewHasher().String(m.Name).String("/").String(md.comp.Name).String("/t").
		Bytes(strconv.AppendInt(threadBuf[:0], int64(tgt.threads()), 10)).
		String("|").String(base.Name).String("|").Bytes(key).Sum64()
	noise := rng.New(noiseKey).LogNormal(0, m.NoiseSigma)
	run *= noise

	// Compile time grows with generated code size; compilers cap their
	// own unrolling, so the growth saturates.
	codeUnits := math.Min(st.unrollProduct, 4096) * float64(len(base.Body))
	compile := m.CompileBaseS + float64(m.CompileSizeS*math.Sqrt(codeUnits))

	// A non-finite model output would silently poison every downstream
	// minimum and surrogate fit; surface it as an evaluation error so the
	// fault-aware layer can record the configuration as failed.
	if math.IsNaN(run) || math.IsInf(run, 0) || math.IsNaN(compile) || math.IsInf(compile, 0) {
		return Cost{}, fmt.Errorf("sim: non-finite modeled cost (run=%v compile=%v) for %s on %s",
			run, compile, base.Name, tgt.Key())
	}

	return Cost{
		RunSeconds:     run,
		CompileSeconds: compile,
		ComputeSeconds: computeSec,
		MemorySeconds:  memSec,
	}, nil
}

// manualMagnitude scores how much manual transformation a spec requests,
// in "doublings": log2 of unroll and register-tile products plus one unit
// per tiled loop. It sums in the spec's entry order.
func manualMagnitude(spec transform.Spec) float64 {
	mag := 0.0
	for _, f := range spec.Unrolls {
		if f.N > 1 {
			mag += math.Log2(float64(f.N))
		}
	}
	for _, f := range spec.RegTiles {
		if f.N > 1 {
			mag += math.Log2(float64(f.N))
		}
	}
	for _, f := range spec.CacheTiles {
		if f.N > 1 {
			mag++
		}
	}
	if spec.ScalarReplace {
		// Source-level scalar replacement rewrites reductions through
		// temporaries, which defeats aggressive reduction vectorizers.
		mag += 3
	}
	if spec.VectorHint {
		mag += 0.5
	}
	return mag / 12 // normalized: a heavy full spec approaches ~1
}

// isRectangular reports whether no loop bound references another loop
// variable (compilers generally only auto-transform rectangular nests).
func isRectangular(n *ir.Nest) bool {
	for _, l := range n.Loops {
		for _, e := range [2]ir.Expr{l.Lower, l.Upper} {
			for _, t := range e.Terms {
				if n.LoopIndex(t.Sym) >= 0 {
					return false
				}
			}
		}
	}
	return true
}

// effectiveSpec merges the user's spec with the compiler's automatic
// transformations: where the user leaves knobs at identity on a
// rectangular nest, the compiler supplies its own unrolling and register
// blocking. own reports that the compiler added nothing, so the result
// transforms the nest exactly as spec does. The result shares spec's
// factors; only automatic ones are new.
func (md *Model) effectiveSpec(spec transform.Spec) (out transform.Spec, own bool) {
	comp := md.comp
	out = transform.Spec{
		Order:      spec.Order,
		Unrolls:    spec.Unrolls,
		CacheTiles: spec.CacheTiles,
		RegTiles:   spec.RegTiles,
	}
	if len(out.Order) == 0 {
		out.Order = md.order
	}
	if comp.RectOnly && !md.rect {
		return out, true
	}
	// Automatic factors replace the user's (all identity) ones: entries
	// for variables outside Order are never read, and the user's entries
	// for Order variables are at most 1, which applies nothing.
	own = true
	if !anyAboveOne(out.CacheTiles) && comp.AutoTile > 1 {
		tiles := make(transform.Factors, len(out.Order))
		for i, v := range out.Order {
			tiles[i] = transform.Factor{Var: v, N: comp.AutoTile}
		}
		out.CacheTiles, own = tiles, false
	}
	if !anyAboveOne(out.Unrolls) && comp.AutoUnroll > 1 && len(out.Order) > 0 {
		innermost := out.Order[len(out.Order)-1]
		out.Unrolls, own = transform.Factors{{Var: innermost, N: comp.AutoUnroll}}, false
	}
	if !anyAboveOne(out.RegTiles) && comp.AutoRegTile > 1 && len(out.Order) >= 2 {
		// Block the two outermost loops, the standard jam choice.
		out.RegTiles, own = transform.Factors{
			{Var: out.Order[0], N: comp.AutoRegTile},
			{Var: out.Order[1], N: comp.AutoRegTile},
		}, false
	}
	return out, own
}

func anyAboveOne(fs transform.Factors) bool {
	for _, f := range fs {
		if f.N > 1 {
			return true
		}
	}
	return false
}

// SpecKey renders a transformation spec canonically (variables sorted,
// identity factors omitted), for use in noise hashing and caching.
func SpecKey(spec transform.Spec) string { return string(appendSpecKey(nil, spec)) }

// appendSpecKey appends SpecKey(spec) to b:
// "U:k=4,;T:i=64,j=64,;R:i=2,;scr=false;vec=true".
func appendSpecKey(b []byte, spec transform.Spec) []byte {
	b = appendFactors(b, "U:", spec.Unrolls)
	b = appendFactors(b, ";T:", spec.CacheTiles)
	b = appendFactors(b, ";R:", spec.RegTiles)
	b = append(b, ";scr="...)
	b = strconv.AppendBool(b, spec.ScalarReplace)
	b = append(b, ";vec="...)
	return strconv.AppendBool(b, spec.VectorHint)
}

// appendFactors appends tag and "var=n," for every variable whose factor
// is not 1, in variable order. It selects the next variable by scanning
// (the lists are a handful of entries), so it needs no sort buffer.
func appendFactors(b []byte, tag string, fs transform.Factors) []byte {
	b = append(b, tag...)
	last, started := "", false
	for {
		next, found := "", false
		for _, f := range fs {
			if (!started || f.Var > last) && (!found || f.Var < next) {
				next, found = f.Var, true
			}
		}
		if !found {
			return b
		}
		if n := fs.Get(next); n != 1 {
			b = append(b, next...)
			b = append(b, '=')
			b = strconv.AppendInt(b, int64(n), 10)
			b = append(b, ',')
		}
		last, started = next, true
	}
}
