// Package opentuner is a miniature reimplementation of OpenTuner's core
// architecture (Ansel et al., PACT 2014), which the paper uses to tune
// its HPL and Raytracer mini-applications: an ensemble of search
// techniques shares a single evaluation budget, and a multi-armed bandit
// allocates evaluations to the techniques that have been producing
// improvements ("optimal budget allocation" in the paper's description).
//
// Techniques come from internal/search (simulated annealing, genetic
// algorithm, pattern search, uniform random); results are shared through
// a common best-so-far, mirroring OpenTuner's shared results database.
package opentuner

import (
	"context"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// Options configures the ensemble tuner.
type Options struct {
	// NMax is the total evaluation budget across all techniques.
	NMax int
	// ExplorationC is the UCB exploration constant (default 1.4).
	ExplorationC float64
	// Window is the sliding window length for a technique's reward
	// average (default 30).
	Window int
}

func (o Options) withDefaults() Options {
	if o.NMax <= 0 {
		o.NMax = 100
	}
	if o.ExplorationC <= 0 {
		o.ExplorationC = 1.4
	}
	if o.Window <= 0 {
		o.Window = 30
	}
	return o
}

// arm tracks one technique's bandit statistics.
type arm struct {
	tech    search.Technique
	pulls   int
	window  int
	rewards []float64 // sliding window of 0/1 improvement rewards
}

func (a *arm) meanReward() float64 {
	if len(a.rewards) == 0 {
		return 1 // optimism for unexplored arms
	}
	s := 0.0
	for _, r := range a.rewards {
		s += r
	}
	return s / float64(len(a.rewards))
}

// Tuner is the ensemble meta-tuner: a search.Technique, with the
// search.Settler hook that pays its arms, that search.Drive runs.
type Tuner struct {
	arms  []*arm
	opt   Options
	r     *rng.RNG
	pulls int     // arms pulled so far in this run
	cur   *arm    // the arm whose proposal is out
	best  float64 // the run's best clean measurement so far
}

// New builds a Tuner over the given techniques. With no techniques, the
// default OpenTuner-like ensemble (SA, GA, pattern search, random) is
// constructed over the problem's space at Run time.
func New(opt Options, r *rng.RNG, techniques ...search.Technique) *Tuner {
	t := &Tuner{opt: opt.withDefaults(), r: r, best: math.Inf(1)}
	for _, tech := range techniques {
		t.arms = append(t.arms, &arm{tech: tech, window: t.opt.Window})
	}
	return t
}

// DefaultEnsemble returns the standard technique ensemble for a space.
func DefaultEnsemble(spc *space.Space, r *rng.RNG) []search.Technique {
	return []search.Technique{
		search.NewAnneal(spc, r.SplitNamed("sa"), 0.95),
		search.NewGenetic(spc, r.SplitNamed("ga"), 16, 0.15),
		search.NewPattern(spc, r.SplitNamed("ps"), 4),
		search.NewRandomTechnique(spc, r.SplitNamed("rand")),
	}
}

// Run tunes the problem with the ensemble through search.Drive,
// returning the search result (algorithm name "OpenTuner") and the
// per-technique pull counts. Cancelling ctx drains the ensemble between
// evaluations, like the search package's algorithms.
func (t *Tuner) Run(ctx context.Context, p search.Problem) (*search.Result, map[string]int) {
	if len(t.arms) == 0 {
		for _, tech := range DefaultEnsemble(p.Space(), t.r) {
			t.arms = append(t.arms, &arm{tech: tech, window: t.opt.Window})
		}
	}
	t.pulls, t.best = 0, math.Inf(1)
	res := search.Drive(ctx, p, t, t.opt.NMax)
	pulls := map[string]int{}
	for _, a := range t.arms {
		pulls[a.tech.Name()] += a.pulls
	}
	return res, pulls
}

// Name implements search.Technique.
func (t *Tuner) Name() string { return "OpenTuner" }

// Propose implements search.Technique: it pulls arms by UCB1 until one
// proposes. An arm with nothing to propose earns reward 0; once no arm
// has anything left, neither has the ensemble.
func (t *Tuner) Propose() (space.Config, bool) {
	for len(t.arms) > 0 {
		a := t.pick()
		t.pulls++
		a.pulls++
		if c, ok := a.tech.Propose(); ok {
			t.cur = a
			return c, true
		}
		a.addReward(0)
		if t.allExhausted() {
			break
		}
	}
	return nil, false
}

// Report implements search.Technique by forwarding to the proposing
// arm's technique.
func (t *Tuner) Report(c space.Config, runTime float64) { t.cur.tech.Report(c, runTime) }

// Settle implements search.Settler: the proposing arm earns reward 1
// when its proposal improved on the run's best clean measurement, and 0
// for a duplicate (the technique is re-treading old ground), a failure
// (it proposed a broken configuration), or no improvement.
func (t *Tuner) Settle(rec *search.Record) {
	reward := 0.0
	if rec != nil && rec.Status == search.StatusOK && rec.RunTime < t.best {
		t.best = rec.RunTime
		reward = 1
	}
	t.cur.addReward(reward)
}

// pick selects the next technique by UCB1 over sliding-window rewards.
func (t *Tuner) pick() *arm {
	best := t.arms[0]
	bestScore := math.Inf(-1)
	for _, a := range t.arms {
		score := a.meanReward()
		if a.pulls > 0 {
			score += float64(t.opt.ExplorationC * math.Sqrt(math.Log(float64(t.pulls+1))/float64(a.pulls)))
		} else {
			score = math.Inf(1)
		}
		// Deterministic tie-break by order; jitter would break replay.
		if score > bestScore {
			bestScore = score
			best = a
		}
	}
	return best
}

func (a *arm) addReward(r float64) {
	a.rewards = append(a.rewards, r)
	if a.window > 0 && len(a.rewards) > a.window {
		a.rewards = a.rewards[1:]
	}
}

func (t *Tuner) allExhausted() bool {
	for _, a := range t.arms {
		if _, ok := a.tech.Propose(); ok {
			return false
		}
	}
	return true
}

// String summarizes the tuner's arm statistics.
func (t *Tuner) String() string {
	s := "opentuner ensemble:"
	for _, a := range t.arms {
		s += fmt.Sprintf(" %s(pulls=%d,reward=%.2f)", a.tech.Name(), a.pulls, a.meanReward())
	}
	return s
}
