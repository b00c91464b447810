package search

import (
	"context"
	"math"

	"repro/internal/rng"
	"repro/internal/space"
)

// Technique is an incremental search heuristic: it proposes
// configurations and receives the measured run times back. Drive runs
// every technique: the heuristics below, and the OpenTuner ensemble
// (internal/opentuner), whose Propose picks one of several techniques to
// propose, so they share one evaluation budget.
type Technique interface {
	Name() string
	// Propose returns the next configuration to evaluate; ok=false means
	// the technique has nothing more to try. The configuration may live
	// in a buffer the technique reuses: it is valid until the next
	// Propose, and a caller that keeps it keeps a clone.
	Propose() (space.Config, bool)
	// Report feeds back the observed run time for a proposed config. A
	// technique that keeps c copies it.
	Report(c space.Config, runTime float64)
}

// Settler is the optional extension of Technique for a technique that
// learns from how its proposals settled, as the ensemble's bandit does.
// Drive calls Settle once for every proposal it serves, after any
// Report: with the proposal's fresh record, or with nil when the
// proposal repeated a configuration this run already evaluated (no
// budget spent).
type Settler interface {
	Settle(rec *Record)
}

// Drive runs a single technique against a problem for nmax evaluations,
// skipping configurations that were already evaluated. Failed
// evaluations consume budget and are recorded, but are not reported to
// the technique (it saw no measurement), so heuristics continue past
// failures without poisoning their internal state. Drive stops when the
// technique has nothing to propose, or after 50 × nmax duplicate
// proposals.
func Drive(ctx context.Context, p Problem, t Technique, nmax int) *Result {
	run := newRunner(p, t.Name())
	run.start(ctx)
	defer run.finish()
	settle := func(*Record) {}
	if s, ok := t.(Settler); ok {
		settle = s.Settle
	}
	seen := map[string]float64{}
	var key []byte // the proposal's compact key, in one reused buffer
	misses := 0
	for len(run.res.Records) < nmax && misses < 50*nmax && ctx.Err() == nil {
		c, ok := t.Propose()
		if !ok {
			break
		}
		key = c.AppendCompactKey(key[:0])
		if cached, dup := seen[string(key)]; dup {
			// Feed the cached measurement back so the technique still
			// advances its internal state, without spending budget. A
			// cached failure (+Inf) is withheld the same as a live one.
			misses++
			run.tr.CacheHit(run.res.Algorithm, run.res.Problem, len(run.res.Records), c)
			if !math.IsInf(cached, 0) && !math.IsNaN(cached) {
				t.Report(c, cached)
			}
			settle(nil)
			continue
		}
		rec, ok := run.evaluate(ctx, c)
		if !ok {
			break
		}
		seen[string(key)] = rec.RunTime
		if rec.Status != StatusFailed {
			t.Report(c, rec.RunTime)
		}
		settle(&rec)
	}
	return run.res
}

// ---------------------------------------------------------------------------

// Anneal is simulated annealing over the configuration space: propose a
// random neighbor of the current point and accept by the Metropolis rule
// under a geometric cooling schedule.
type Anneal struct {
	spc     *space.Space
	r       *rng.RNG
	cur     space.Config
	curTime float64
	started bool
	temp    float64
	cooling float64
	next    space.Config // the buffer neighbor proposals are written to
	start   space.Config
}

// NewAnneal returns a simulated-annealing technique. temp0 is the initial
// temperature as a fraction of the first observed run time; cooling is
// the per-step multiplier (e.g. 0.95).
func NewAnneal(spc *space.Space, r *rng.RNG, cooling float64) *Anneal {
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.95
	}
	return &Anneal{spc: spc, r: r, cooling: cooling, temp: -1}
}

// Name implements Technique.
func (a *Anneal) Name() string { return "SA" }

// SetStart seeds the annealer's first proposal (a warm start, e.g. from
// a surrogate model's predicted best — the paper's future-work direction
// of combining transfer with more sophisticated search).
func (a *Anneal) SetStart(c space.Config) { a.start = c.Clone() }

// Propose implements Technique.
func (a *Anneal) Propose() (space.Config, bool) {
	if !a.started {
		if a.start != nil {
			return a.start, true
		}
		return a.spc.Random(a.r), true
	}
	a.next = a.neighbor(a.next, a.cur)
	return a.next, true
}

// neighbor writes into dst, and returns, c with one parameter perturbed
// by one level (wrapping at the ends would bias toward boundaries, so it
// clamps instead).
func (a *Anneal) neighbor(dst, c space.Config) space.Config {
	n := append(dst[:0], c...)
	i := a.r.Intn(a.spc.NumParams())
	levels := a.spc.Param(i).Levels()
	if levels == 1 {
		return n
	}
	step := 1
	if a.r.Float64() < 0.3 {
		step = 1 + a.r.Intn(3) // occasional longer jumps
	}
	if a.r.Float64() < 0.5 {
		step = -step
	}
	v := n[i] + step
	if v < 0 {
		v = 0
	}
	if v >= levels {
		v = levels - 1
	}
	n[i] = v
	return n
}

// Report implements Technique.
func (a *Anneal) Report(c space.Config, runTime float64) {
	if !a.started {
		a.cur = append(a.cur[:0], c...)
		a.curTime = runTime
		a.temp = runTime * 0.3
		a.started = true
		return
	}
	accept := runTime < a.curTime
	if !accept && a.temp > 0 {
		accept = a.r.Float64() < math.Exp(-(runTime-a.curTime)/a.temp)
	}
	if accept {
		a.cur = append(a.cur[:0], c...)
		a.curTime = runTime
	}
	a.temp *= a.cooling
}

// ---------------------------------------------------------------------------

// Genetic is a steady-state genetic algorithm: tournament selection,
// uniform crossover, per-gene mutation, replace-worst insertion.
type Genetic struct {
	spc      *space.Space
	r        *rng.RNG
	popSize  int
	mutation float64
	pop      []gaMember
	child    space.Config // the buffer crossover proposals are written to
}

type gaMember struct {
	c       space.Config
	runTime float64
}

// NewGenetic returns a genetic-algorithm technique.
func NewGenetic(spc *space.Space, r *rng.RNG, popSize int, mutation float64) *Genetic {
	if popSize < 4 {
		popSize = 16
	}
	if mutation <= 0 || mutation >= 1 {
		mutation = 0.15
	}
	return &Genetic{spc: spc, r: r, popSize: popSize, mutation: mutation}
}

// Name implements Technique.
func (g *Genetic) Name() string { return "GA" }

// Propose implements Technique.
func (g *Genetic) Propose() (space.Config, bool) {
	if len(g.pop) < g.popSize {
		return g.spc.Random(g.r), true
	}
	p1 := g.tournament()
	p2 := g.tournament()
	if g.child == nil {
		g.child = make(space.Config, g.spc.NumParams())
	}
	child := g.child
	for i := range child {
		if g.r.Float64() < 0.5 {
			child[i] = p1.c[i]
		} else {
			child[i] = p2.c[i]
		}
		if g.r.Float64() < g.mutation {
			child[i] = g.r.Intn(g.spc.Param(i).Levels())
		}
	}
	return child, true
}

func (g *Genetic) tournament() gaMember {
	best := g.pop[g.r.Intn(len(g.pop))]
	for i := 0; i < 2; i++ {
		c := g.pop[g.r.Intn(len(g.pop))]
		if c.runTime < best.runTime {
			best = c
		}
	}
	return best
}

// Report implements Technique.
func (g *Genetic) Report(c space.Config, runTime float64) {
	if len(g.pop) < g.popSize {
		g.pop = append(g.pop, gaMember{c: c.Clone(), runTime: runTime})
		return
	}
	worst := 0
	for i := range g.pop {
		if g.pop[i].runTime > g.pop[worst].runTime {
			worst = i
		}
	}
	if runTime < g.pop[worst].runTime {
		// Members are never handed out, so the new one takes over the
		// replaced member's levels in place.
		copy(g.pop[worst].c, c)
		g.pop[worst].runTime = runTime
	}
}

// ---------------------------------------------------------------------------

// Pattern is coordinate pattern search (generalized pattern search on the
// level grid): poll +/- step along each parameter from the incumbent;
// move on success, halve the step on a full failed sweep.
type Pattern struct {
	spc     *space.Space
	r       *rng.RNG
	cur     space.Config
	curTime float64
	started bool
	step    int
	dim     int
	sign    int
	failed  int
	next    space.Config // the buffer poll proposals are written to
}

// NewPattern returns a pattern-search technique with the given initial
// step in levels.
func NewPattern(spc *space.Space, r *rng.RNG, step int) *Pattern {
	if step < 1 {
		step = 4
	}
	return &Pattern{spc: spc, r: r, step: step, sign: 1}
}

// Name implements Technique.
func (p *Pattern) Name() string { return "PS" }

// Propose implements Technique.
func (p *Pattern) Propose() (space.Config, bool) {
	if !p.started {
		return p.spc.Random(p.r), true
	}
	if p.step < 1 {
		return nil, false
	}
	p.next = append(p.next[:0], p.cur...)
	c := p.next
	levels := p.spc.Param(p.dim).Levels()
	v := c[p.dim] + p.sign*p.step
	if v < 0 {
		v = 0
	}
	if v >= levels {
		v = levels - 1
	}
	c[p.dim] = v
	return c, true
}

// Report implements Technique.
func (p *Pattern) Report(c space.Config, runTime float64) {
	if !p.started {
		p.cur = append(p.cur[:0], c...)
		p.curTime = runTime
		p.started = true
		return
	}
	if runTime < p.curTime {
		p.cur = append(p.cur[:0], c...)
		p.curTime = runTime
		p.failed = 0
	} else {
		p.failed++
	}
	// Advance the poll pattern: -> +dim, -dim, +dim+1, ...
	if p.sign == 1 {
		p.sign = -1
	} else {
		p.sign = 1
		p.dim = (p.dim + 1) % p.spc.NumParams()
	}
	if p.failed >= 2*p.spc.NumParams() {
		p.step /= 2
		p.failed = 0
	}
}

// ---------------------------------------------------------------------------

// RandomTechnique wraps uniform random sampling as a Technique so it can
// compete inside a meta-tuner ensemble.
type RandomTechnique struct {
	spc *space.Space
	r   *rng.RNG
}

// NewRandomTechnique returns the random-sampling technique.
func NewRandomTechnique(spc *space.Space, r *rng.RNG) *RandomTechnique {
	return &RandomTechnique{spc: spc, r: r}
}

// Name implements Technique.
func (t *RandomTechnique) Name() string { return "RAND" }

// Propose implements Technique.
func (t *RandomTechnique) Propose() (space.Config, bool) { return t.spc.Random(t.r), true }

// Report implements Technique.
func (t *RandomTechnique) Report(space.Config, float64) {}
