// Package cache performs locality analysis of a (transformed) loop nest:
// register-level load/store counts under unroll-and-jam blocking, register
// pressure, per-cache-level traffic under a capacity-fit footprint model,
// vectorizability of the innermost loop, and loop/code-size overheads.
//
// The model is the classical analytical treatment of tiled affine loop
// nests: a cache level retains the working set of the deepest loop prefix
// whose footprint fits, so the traffic into that level is the footprint at
// that depth times the number of times the enclosing loops execute. This
// is what makes cache tiling, register tiling, and unrolling shape the
// search landscape the same way they do on real machines.
package cache

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ir"
)

// Level is one cache level's capacity description.
type Level struct {
	Name          string
	CapacityBytes float64
}

// Params configures the analysis for a particular machine.
type Params struct {
	LineBytes float64 // cache line size, e.g. 64
	Levels    []Level // ordered L1 outward; the last level misses to DRAM
	// CapacityFraction discounts each level's capacity for conflict and
	// sharing effects (typically 0.6–0.8).
	CapacityFraction float64
}

// Result is the outcome of analyzing one nest.
type Result struct {
	// Work.
	Flops     float64
	BodyExecs float64

	// Register level.
	RegLoads    float64 // element loads from L1 into registers
	RegStores   float64 // element stores from registers to L1
	NaiveLoads  float64 // loads if no register reuse happened at all
	RegPressure float64 // simultaneously live register elements
	BlockIters  float64 // executions of the register-blocked body

	// Traffic[i] is the bytes moved into Levels[i] from the level
	// beneath it (the level beneath the last entry is DRAM).
	Traffic []float64

	// Instruction-stream effects.
	LoopOverheadOps float64 // compare/branch/increment operations
	UnrollProduct   float64 // static body replication (code growth)

	// Vectorization.
	VecFraction   float64 // fraction of references amenable to SIMD
	InnermostTrip float64 // remaining trip count of the vectorized loop

	// FootprintBytes is the whole-nest data footprint.
	FootprintBytes float64
}

// MaxLoops is the deepest nest the analysis accepts: loop sets are
// bit masks over loop positions.
const MaxLoops = 64

// distinctRef is a deduplicated array reference with read/write flags and
// its slot-resolved index forms.
type distinctRef struct {
	ref    ir.Ref
	read   bool
	write  bool
	copies int // how many body statements reference it

	idx   []form // Index, resolved
	array int    // position in analysis.arrays
	// uses and usesButLast are the loops whose variables any index
	// (any index but the last) uses; varies adds every loop their bounds
	// depend on, so the reference varies when loop v advances iff bit v
	// of varies is set.
	uses, usesButLast, varies uint64
}

// sameExpr reports whether two expressions render the same String, which
// is how references were once told apart: same symbols with coefficients
// of the same rendering, and the same constant where it is rendered.
func sameExpr(a, b ir.Expr) bool {
	if len(a.Terms) != len(b.Terms) {
		return false
	}
	for i, t := range a.Terms {
		if t.Sym != b.Terms[i].Sym || !sameFloat(t.Coeff, b.Terms[i].Coeff) {
			return false
		}
	}
	if len(a.Terms) > 0 && math.Float64bits(a.Const)<<1 == 0 && math.Float64bits(b.Const)<<1 == 0 {
		return true // a zero constant (of either sign) is not rendered after terms
	}
	return sameFloat(a.Const, b.Const)
}

// sameFloat reports whether x and y format alike under %g: the same bits
// (so the same value and sign), or both NaN.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func sameRef(a, b ir.Ref) bool {
	if a.Array != b.Array || len(a.Index) != len(b.Index) {
		return false
	}
	for i := range a.Index {
		if !sameExpr(a.Index[i], b.Index[i]) {
			return false
		}
	}
	return true
}

// distinctRefs appends the nest's distinct references to out, in order
// of first appearance.
func distinctRefs(out []distinctRef, n *ir.Nest) []distinctRef {
	start := len(out)
	for _, s := range n.Body {
		for _, r := range s.Refs {
			var d *distinctRef
			for i := start; i < len(out); i++ {
				if sameRef(out[i].ref, r) {
					d = &out[i]
					break
				}
			}
			if d == nil {
				out = append(out, distinctRef{ref: r})
				d = &out[len(out)-1]
			}
			d.copies++
			if r.Write {
				d.write = true
			} else {
				d.read = true
			}
		}
	}
	return out
}

// BoundDeps fills deps[i], for each loop i of n, with the loops whose
// variables loop i's bounds depend on, transitively, as a mask over loop
// positions. A reference that uses a tile point loop (i in [ii, ii+T))
// therefore also varies when the tile loop ii advances. deps must have
// one entry per loop, and n at most MaxLoops loops.
func BoundDeps(n *ir.Nest, deps []uint64) {
	// Loops are ordered outermost first, so a loop's bounds can only
	// reference already-processed outer loops; one pass suffices for the
	// transitive closure.
	for i, l := range n.Loops {
		var set uint64
		for _, e := range [2]ir.Expr{l.Lower, l.Upper} {
			for _, t := range e.Terms {
				j := n.LoopIndex(t.Sym)
				if j < 0 {
					continue
				}
				set |= 1 << j
				if j < i {
					set |= deps[j]
				}
			}
		}
		deps[i] = set
	}
}

// Uses returns the loops whose variables the reference's indices use,
// as a mask over loop positions.
func Uses(n *ir.Nest, r ir.Ref) uint64 {
	var set uint64
	for _, e := range r.Index {
		set |= exprUses(n, e)
	}
	return set
}

func exprUses(n *ir.Nest, e ir.Expr) uint64 {
	var set uint64
	for _, t := range e.Terms {
		if t.Coeff != 0 {
			if j := n.LoopIndex(t.Sym); j >= 0 {
				set |= 1 << j
			}
		}
	}
	return set
}

// Varies returns the loops along which a reference with the given uses
// varies: those it uses directly and those whose advance moves a loop it
// uses through that loop's bounds (deps from BoundDeps).
func Varies(uses uint64, deps []uint64) uint64 {
	set := uses
	for w, d := range deps {
		if uses&(1<<w) != 0 {
			set |= d
		}
	}
	return set
}

// loopInfo precomputes per-loop quantities for the analysis.
type loopInfo struct {
	loop ir.Loop
	trip float64
	// block is the unroll-and-jam replication this loop contributes to the
	// innermost body block: the unroll factor for register loops and for
	// unrolled non-innermost loops (jamming), 1 otherwise.
	block float64
	// remaining is trip/block: the iterations of this loop that still
	// execute around the block.
	remaining float64
}

// slotTerm is one resolved term of an affine form: a coefficient times
// the value of an environment slot.
type slotTerm struct {
	slot  int
	coeff float64
}

// form is an ir.Expr resolved against an analysis's slots. Its terms
// keep the expression's symbol order, so it sums in the same order.
type form struct {
	terms []slotTerm
	c     float64
}

func (f form) eval(env []float64) float64 {
	v := f.c
	for _, t := range f.terms {
		v += float64(t.coeff * env[t.slot])
	}
	return v
}

// coeffOfLoop returns the coefficient of loop slot j (0 if absent).
func (f form) coeffOfLoop(j int) float64 {
	for _, t := range f.terms {
		if t.slot == j {
			return t.coeff
		}
	}
	return 0
}

// interval is a closed numeric range used for footprint analysis.
type interval struct{ lo, hi float64 }

// evalInterval evaluates an affine form over slot intervals.
func (f form) evalInterval(env []interval) interval {
	out := interval{f.c, f.c}
	for _, t := range f.terms {
		iv := env[t.slot]
		if t.coeff >= 0 {
			out.lo += float64(t.coeff * iv.lo)
			out.hi += float64(t.coeff * iv.hi)
		} else {
			out.lo += float64(t.coeff * iv.hi)
			out.hi += float64(t.coeff * iv.lo)
		}
	}
	return out
}

// arrayInfo is one array the distinct references touch, in order of
// first appearance, with its per-depth footprint accumulators.
type arrayInfo struct {
	name     string
	elem     float64
	dims     []float64 // dimension extents under the problem sizes
	capBytes float64
	bytes    float64
	lines    float64
}

// analysis is the scratch state of one Analyze call. Every symbol of the
// nest resolves once to a slot: slot j < len(Loops) is loop j's
// variable, later slots the other symbols in order of first use. The
// environments are then plain slices indexed by slot. Analyze draws an
// analysis from a pool, so a steady stream of calls allocates only the
// results.
type analysis struct {
	n      *ir.Nest
	extra  []string  // symbol of slot len(Loops)+i
	init   []float64 // value of every slot before its loop binds
	terms  []slotTerm
	bounds []form // loop j's lower bound at 2j, upper at 2j+1
	idx    []form
	dims   []float64
	refs   []distinctRef
	arrays []arrayInfo
	deps   []uint64
	infos  []loopInfo
	env    []float64
	ienv   []interval
	depth  []float64 // fpBytes, fpLines, outerIters: one per depth each
}

var analyses = sync.Pool{New: func() any { return new(analysis) }}

// slot returns sym's slot, assigning a new one on first use.
func (a *analysis) slot(sym string) int {
	if j := a.n.LoopIndex(sym); j >= 0 {
		return j
	}
	for i, s := range a.extra {
		if s == sym {
			return len(a.n.Loops) + i
		}
	}
	a.extra = append(a.extra, sym)
	a.init = append(a.init, a.n.Sizes[sym])
	return len(a.n.Loops) + len(a.extra) - 1
}

// resolve returns e with its symbols resolved to slots.
func (a *analysis) resolve(e ir.Expr) form {
	start := len(a.terms)
	for _, t := range e.Terms {
		a.terms = append(a.terms, slotTerm{slot: a.slot(t.Sym), coeff: t.Coeff})
	}
	return form{terms: a.terms[start:len(a.terms):len(a.terms)], c: e.Const}
}

// prepare resolves n: its loop bounds, its distinct references and their
// arrays, and the loop dependency masks.
func (a *analysis) prepare(n *ir.Nest) {
	L := len(n.Loops)
	a.n = n
	a.extra = a.extra[:0]
	a.init = a.init[:0]
	for _, l := range n.Loops {
		// A loop variable that shadows a problem size reads as the size
		// until its loop binds it.
		a.init = append(a.init, n.Sizes[l.Var])
	}
	a.terms = a.terms[:0]
	a.bounds = a.bounds[:0]
	for _, l := range n.Loops {
		a.bounds = append(a.bounds, a.resolve(l.Lower), a.resolve(l.Upper))
	}
	a.deps = grow(a.deps, L)
	BoundDeps(n, a.deps)

	a.refs = distinctRefs(a.refs[:0], n)
	a.idx = a.idx[:0]
	a.arrays = a.arrays[:0]
	a.dims = a.dims[:0]
	for i := range a.refs {
		d := &a.refs[i]
		start := len(a.idx)
		for _, e := range d.ref.Index {
			a.idx = append(a.idx, a.resolve(e))
		}
		d.idx = a.idx[start:len(a.idx):len(a.idx)]
		last := len(d.ref.Index) - 1
		d.uses, d.usesButLast = 0, 0
		for di, e := range d.ref.Index {
			u := exprUses(n, e)
			d.uses |= u
			if di != last {
				d.usesButLast |= u
			}
		}
		d.varies = Varies(d.uses, a.deps)
		d.array = -1
		for k := range a.arrays {
			if a.arrays[k].name == d.ref.Array {
				d.array = k
				break
			}
		}
		if d.array < 0 {
			d.array = len(a.arrays)
			a.arrays = append(a.arrays, a.arrayInfo(d.ref.Array))
		}
	}
}

// arrayInfo resolves one declared array: element size, extents, and
// the capacity that overlapping references cannot exceed.
func (a *analysis) arrayInfo(name string) arrayInfo {
	arr := a.n.Arrays[name]
	info := arrayInfo{name: name, elem: float64(arr.ElemSize)}
	start := len(a.dims)
	capElems := 1.0
	for _, dim := range arr.Dims {
		size := dim.Eval(a.n.Sizes)
		a.dims = append(a.dims, size)
		capElems *= math.Max(1, size)
	}
	info.dims = a.dims[start:len(a.dims):len(a.dims)]
	info.capBytes = capElems * info.elem
	return info
}

// grow returns s resized to n elements, reusing its storage.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// trips fills the loop infos' trip counts: every loop variable is bound
// to the midpoint of its range (outer variables first), then each loop's
// bounds are evaluated in that full environment.
func (a *analysis) trips() {
	L := len(a.n.Loops)
	env := grow(a.env, len(a.init))
	copy(env, a.init)
	for j := 0; j < L; j++ {
		lo := a.bounds[2*j].eval(env)
		hi := a.bounds[2*j+1].eval(env)
		if hi < lo {
			hi = lo
		}
		env[j] = (lo + hi) / 2
	}
	a.env = env
	a.infos = grow(a.infos, L)
	for j, l := range a.n.Loops {
		trip := 0.0
		lo := a.bounds[2*j].eval(env)
		hi := a.bounds[2*j+1].eval(env)
		if hi > lo {
			step := l.Step
			if step <= 0 {
				step = 1
			}
			trip = math.Max(1, (hi-lo)/step)
		}
		a.infos[j] = loopInfo{loop: l, trip: trip}
	}
}

// Analyze computes the locality result for the nest under the parameters.
func Analyze(n *ir.Nest, p Params) (Result, error) {
	if err := n.Validate(); err != nil {
		return Result{}, fmt.Errorf("cache: %w", err)
	}
	if p.LineBytes <= 0 {
		return Result{}, fmt.Errorf("cache: line size must be positive")
	}
	if len(n.Loops) > MaxLoops {
		return Result{}, fmt.Errorf("cache: %s has %d loops, at most %d supported", n.Name, len(n.Loops), MaxLoops)
	}
	capFrac := p.CapacityFraction
	if capFrac <= 0 || capFrac > 1 {
		capFrac = 0.75
	}

	a := analyses.Get().(*analysis)
	defer func() {
		a.n = nil
		analyses.Put(a)
	}()
	a.prepare(n)
	a.trips()
	infos := a.infos

	res := Result{BodyExecs: 1}
	for _, li := range infos {
		res.BodyExecs *= li.trip
	}
	perBody := 0.0
	for _, s := range n.Body {
		perBody += s.Flops
	}
	res.Flops = perBody * res.BodyExecs
	refs := a.refs
	if res.BodyExecs == 0 {
		res.Traffic = make([]float64, len(p.Levels))
		return res, nil
	}

	// Innermost non-register loop: its unroll reduces overhead but does
	// not jam (the replicated bodies follow each other in the same
	// iteration stream).
	innermost := -1
	for i := len(n.Loops) - 1; i >= 0; i-- {
		if !n.Loops[i].Register {
			innermost = i
			break
		}
	}

	unrollProduct := 1.0
	for i := range infos {
		li := &infos[i]
		if li.trip < 1 {
			li.trip = 1
		}
		block := 1.0
		u := float64(li.loop.Unroll)
		if u < 1 {
			u = 1
		}
		unrollProduct *= u
		if li.loop.Register || (u > 1 && i != innermost) {
			block = math.Min(u, li.trip)
		}
		li.block = block
		li.remaining = math.Max(1, li.trip/block)
	}
	res.UnrollProduct = unrollProduct

	blockSize := 1.0
	for _, li := range infos {
		blockSize *= li.block
	}
	res.BlockIters = res.BodyExecs / blockSize

	// Register-level loads/stores and pressure.
	pressure := 0.0
	for _, d := range refs {
		nr := 1.0 // elements of this ref live in the block
		for i, li := range infos {
			if li.block > 1 && d.varies&(1<<i) != 0 {
				nr *= li.block
			}
		}
		// Temporal reuse across the innermost non-blocked loops in which
		// the reference is invariant.
		s := 1.0
		for i := len(infos) - 1; i >= 0; i-- {
			li := infos[i]
			if li.remaining <= 1+1e-9 {
				continue // fully inside the block
			}
			if d.varies&(1<<i) != 0 {
				break
			}
			s *= li.remaining
		}
		residencies := res.BlockIters / s
		if d.read || d.write {
			res.RegLoads += float64(residencies * nr)
		}
		if d.write {
			res.RegStores += float64(residencies * nr)
		}
		res.NaiveLoads += float64(res.BodyExecs * float64(d.copies))
		pressure += nr
	}
	// Induction variables and statement temporaries occupy registers too;
	// unrolled bodies replicate the temporaries.
	pressure += float64(len(n.Loops)) + float64(float64(len(n.Body))*blockSize*0.5)
	res.RegPressure = pressure

	// Cache traffic per level via the capacity-fit footprint model.
	depths := len(n.Loops) + 1
	a.depth = grow(a.depth, 3*depths)
	fpBytes := a.depth[:depths]           // footprint of loops[l:]
	fpLines := a.depth[depths : 2*depths] // same footprint in cache lines
	outerIters := a.depth[2*depths:]      // executions of the loops outside depth l
	for l := 0; l < depths; l++ {
		fpBytes[l], fpLines[l] = a.footprintAt(l, p.LineBytes)
		it := 1.0
		for j := 0; j < l; j++ {
			it *= infos[j].trip
		}
		outerIters[l] = it
	}
	res.FootprintBytes = fpBytes[0]

	trafficAt := func(d int) float64 { return outerIters[d] * fpLines[d] * p.LineBytes }
	res.Traffic = make([]float64, len(p.Levels))
	for li, lev := range p.Levels {
		eff := lev.CapacityBytes * capFrac
		fit := depths - 1
		for l := 0; l < depths; l++ {
			if fpBytes[l] <= eff {
				fit = l
				break
			}
		}
		if fit == 0 {
			res.Traffic[li] = trafficAt(0)
			continue
		}
		// The capacity lies between the footprints at depths fit-1 (too
		// big) and fit (fits). Interpolate geometrically so that nearly
		// fitting working sets get partial retention instead of a cliff,
		// which matches the gradual miss-rate growth of real caches.
		big, small := fpBytes[fit-1], fpBytes[fit]
		t := 1.0
		if big > small && eff > small {
			t = (math.Log(big) - math.Log(eff)) / (math.Log(big) - math.Log(small))
		}
		tb, ts := trafficAt(fit-1), trafficAt(fit)
		if tb <= 0 || ts <= 0 {
			res.Traffic[li] = ts
			continue
		}
		res.Traffic[li] = math.Exp(float64((1-t)*math.Log(tb)) + float64(t*math.Log(ts)))
	}
	// Monotonicity: an inner level cannot see less traffic than an outer
	// one (everything that misses L2 also missed L1).
	for i := len(p.Levels) - 1; i >= 1; i-- {
		if res.Traffic[i] > res.Traffic[i-1] {
			res.Traffic[i-1] = res.Traffic[i]
		}
	}

	// Loop overhead: each loop header executes trip/unroll times per entry.
	for i := range infos {
		overheadPerHeader := 2.0
		res.LoopOverheadOps += float64(headerExecs(infos, i) * overheadPerHeader)
	}

	// Vectorization analysis over the innermost remaining loop.
	res.VecFraction, res.InnermostTrip = vectorizability(refs, infos)

	return res, nil
}

// headerExecs counts executions of loop i's header: the product of the
// enclosing loops' trips times this loop's trip divided by its unroll.
func headerExecs(infos []loopInfo, i int) float64 {
	execs := 1.0
	for j := 0; j < i; j++ {
		execs *= infos[j].trip
	}
	u := float64(infos[i].loop.Unroll)
	if u < 1 {
		u = 1
	}
	return execs * infos[i].trip / u
}

// varIntervals sets the interval environment to the value range of every
// loop variable when the loops at depth >= l iterate freely and the
// outer loops are held at their midpoints. Bounds are resolved
// outermost-first so tile point loops (i in [ii, ii+T)) inherit the tile
// loop's full sweep; a symbol no loop binds keeps its problem size (or 0).
func (a *analysis) varIntervals(l int) []interval {
	env := grow(a.ienv, len(a.init))
	for s, v := range a.init {
		env[s] = interval{v, v}
	}
	for j, loop := range a.n.Loops {
		lo := a.bounds[2*j].evalInterval(env)
		hi := a.bounds[2*j+1].evalInterval(env)
		if hi.hi < lo.lo {
			hi.hi = lo.lo
		}
		if j < l {
			// Held fixed: collapse to the midpoint of the average range.
			mid := (lo.lo + lo.hi + hi.lo + hi.hi) / 4
			env[j] = interval{mid, mid}
		} else {
			upper := hi.hi - loop.Step
			if upper < lo.lo {
				upper = lo.lo
			}
			env[j] = interval{lo.lo, upper}
		}
	}
	a.ienv = env
	return env
}

// footprintAt returns the footprint in bytes and cache lines of the data
// accessed by the loops at depth >= l (outer loop variables held fixed).
func (a *analysis) footprintAt(l int, lineBytes float64) (bytes, lines float64) {
	L := len(a.n.Loops)
	env := a.varIntervals(l)
	// Per-array accumulation so multiple references into the same array
	// (LU accesses A three ways) are capped at the array's size.
	for k := range a.arrays {
		a.arrays[k].bytes, a.arrays[k].lines = 0, 0
	}

	for _, d := range a.refs {
		arr := &a.arrays[d.array]
		elem := arr.elem

		elements := 1.0
		lastTouched := 1.0
		dense := false
		for di, idx := range d.idx {
			iv := idx.evalInterval(env)
			touched := iv.hi - iv.lo + 1
			dimSize := arr.dims[di]
			if dimSize > 0 && touched > dimSize {
				touched = dimSize
			}
			if touched < 1 {
				touched = 1
			}
			elements *= touched
			if di == len(d.idx)-1 {
				lastTouched = touched
				for _, t := range idx.terms {
					if t.slot >= l && t.slot < L && math.Abs(t.coeff) == 1 {
						dense = true
					}
				}
			}
		}

		b := float64(elements * elem)
		var ln float64
		if dense && lastTouched > 1 {
			// Rows of lastTouched contiguous elements.
			rows := elements / lastTouched
			ln = float64(rows * math.Ceil(lastTouched*elem/lineBytes))
		} else {
			// Strided or fixed last dimension: one line per element,
			// bounded below by the dense packing.
			ln = math.Max(elements, b/lineBytes)
		}
		if d.write {
			// Write-allocate plus write-back: the written footprint moves
			// twice across each boundary it crosses.
			ln *= 2
		}
		arr.bytes += b
		arr.lines += ln
	}

	for _, acc := range a.arrays {
		b := acc.bytes
		ln := acc.lines
		if b > acc.capBytes {
			// Overlapping references cannot exceed the array itself.
			scale := acc.capBytes / b
			b = acc.capBytes
			ln *= scale
		}
		bytes += b
		lines += ln
	}
	return bytes, lines
}

// vectorizability classifies references against the innermost loop that
// still iterates (remaining trip > 1): a reference supports SIMD if it is
// invariant in that loop or accesses the last dimension with stride one.
func vectorizability(refs []distinctRef, infos []loopInfo) (frac, trip float64) {
	vi := -1
	for i := len(infos) - 1; i >= 0; i-- {
		if infos[i].remaining > 1+1e-9 {
			vi = i
			break
		}
	}
	if vi < 0 || len(refs) == 0 {
		return 0, 1
	}
	bit := uint64(1) << vi
	good := 0.0
	for _, d := range refs {
		if d.uses&bit == 0 {
			good++
			continue
		}
		last := d.idx[len(d.idx)-1]
		if math.Abs(last.coeffOfLoop(vi)) == 1 && d.usesButLast&bit == 0 {
			good++
		}
	}
	return good / float64(len(refs)), infos[vi].remaining
}
