// Package faults provides a deterministic, seeded fault injector for
// autotuning problems. An Injector is an evaluation layer: it reaches
// the problem below through search.EvaluateFull, passing the caller's
// context down, and returns each failed attempt as an Outcome whose Err
// is a *Fault. Its evaluations exhibit the failure modes of a real
// measurement harness:
//
//   - compile failures: a deterministic property of the configuration —
//     a variant that does not build never builds, however often it is
//     retried;
//   - transient crashes: per-attempt failures (flaky runs, node hiccups)
//     that a retry can get past;
//   - hangs: runs whose time inflates far beyond normal, which a
//     resilient evaluator's timeout cap turns into censored
//     measurements;
//   - heavy-tailed noise: occasional large multiplicative measurement
//     outliers on otherwise successful runs.
//
// Every decision is a pure function of (seed, problem, configuration,
// attempt), so experiments remain bit-reproducible: two searches over
// identically-seeded injectors see identical fault sequences, extending
// the repository's common-random-numbers methodology to the failure
// path. An interrupted evaluation below (a cancelled context) is passed
// up untouched and does not count as an attempt, so a drained search
// resumes onto the same rolls. Like the rng streams, an Injector is not
// safe for concurrent use.
package faults

import (
	"context"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// Rates configures the per-evaluation fault probabilities of an
// Injector. CompileFail applies once per configuration; Crash, Hang and
// NoiseTail apply independently per attempt, so retries can succeed.
type Rates struct {
	// CompileFail is the probability a configuration fails to build
	// (permanent: every attempt fails identically).
	CompileFail float64
	// Crash is the per-attempt probability of a transient crash.
	Crash float64
	// Hang is the per-attempt probability the run "hangs": its run time
	// is multiplied by HangFactor, far past any sane timeout cap.
	Hang float64
	// HangFactor is the run-time multiplier of a hang (default 50).
	HangFactor float64
	// NoiseTail is the per-attempt probability of a heavy-tailed
	// measurement outlier on an otherwise clean run.
	NoiseTail float64
	// NoiseSigma is the log-normal sigma of the outlier factor (default
	// 1.2). Outliers only inflate: the factor is exp(|sigma·z|).
	NoiseSigma float64
}

// maxFailureTotal caps the combined failure mass. Probabilities summing
// to 1 (or beyond) would make every evaluation fail, so validation
// rescales anything above this bound.
const maxFailureTotal = 0.999

// Normalize returns a copy of r with every rate forced into valid
// probability range, plus a description of each correction applied (for
// an obs warning event). Negative rates clamp to zero; a failure total
// above maxFailureTotal rescales compile/crash/hang proportionally; a
// NoiseTail above 1 clamps to 1.
func (r Rates) Normalize() (Rates, []string) {
	var warnings []string
	clamp := func(name string, v *float64) {
		if *v < 0 {
			warnings = append(warnings, fmt.Sprintf("%s rate %g < 0 clamped to 0", name, *v))
			*v = 0
		}
	}
	clamp("compile-fail", &r.CompileFail)
	clamp("crash", &r.Crash)
	clamp("hang", &r.Hang)
	clamp("noise-tail", &r.NoiseTail)
	if total := r.FailureTotal(); total > maxFailureTotal {
		f := maxFailureTotal / total
		warnings = append(warnings, fmt.Sprintf(
			"failure total %g > %g rescaled by %g", total, maxFailureTotal, f))
		r.CompileFail *= f
		r.Crash *= f
		r.Hang *= f
	}
	if r.NoiseTail > 1 {
		warnings = append(warnings, fmt.Sprintf("noise-tail rate %g > 1 clamped to 1", r.NoiseTail))
		r.NoiseTail = 1
	}
	return r, warnings
}

func (r Rates) withDefaults() Rates {
	r, _ = r.Normalize()
	if r.HangFactor <= 1 {
		r.HangFactor = 50
	}
	if r.NoiseSigma <= 0 {
		r.NoiseSigma = 1.2
	}
	return r
}

// FailureTotal is the combined probability mass of the modes that
// prevent a clean measurement on a first attempt (compile + crash +
// hang).
func (r Rates) FailureTotal() float64 { return r.CompileFail + r.Crash + r.Hang }

// ScaledTo returns a copy whose FailureTotal equals total, preserving
// the proportions between compile failures, crashes, and hangs (and
// scaling the noise tail by the same factor). A profile with zero mass
// scales from an even split. Inputs are validated: negative rates in r
// are clamped before scaling, a negative total behaves like 0, and a
// total above maxFailureTotal is capped there — so the result always
// carries in-range probabilities.
func (r Rates) ScaledTo(total float64) Rates {
	r = r.withDefaults() // withDefaults normalizes negative rates away
	if total <= 0 {
		r.CompileFail, r.Crash, r.Hang, r.NoiseTail = 0, 0, 0, 0
		return r
	}
	if total > maxFailureTotal {
		total = maxFailureTotal
	}
	cur := r.FailureTotal()
	if cur <= 0 {
		r.CompileFail, r.Crash, r.Hang = total/3, total/3, total/3
		return r
	}
	f := total / cur
	r.CompileFail *= f
	r.Crash *= f
	r.Hang *= f
	r.NoiseTail *= f
	if r.NoiseTail > 1 {
		r.NoiseTail = 1
	}
	return r
}

// Profile returns the default fault profile of a simulated machine, so
// the five machines of the paper's testbed fail in distinct ways: the
// mature x86 server parts barely fail, the accelerated Xeon Phi crashes
// and hangs, and X-Gene's 2013-era ARM toolchain refuses to compile
// aggressive variants. Unknown machines get a moderate generic profile.
func Profile(machineName string) Rates {
	switch machineName {
	case "Sandybridge":
		return Rates{CompileFail: 0.01, Crash: 0.02, Hang: 0.005, NoiseTail: 0.01}.withDefaults()
	case "Westmere":
		return Rates{CompileFail: 0.01, Crash: 0.03, Hang: 0.01, NoiseTail: 0.02}.withDefaults()
	case "XeonPhi":
		return Rates{CompileFail: 0.03, Crash: 0.08, Hang: 0.04, NoiseTail: 0.05}.withDefaults()
	case "Power7":
		return Rates{CompileFail: 0.02, Crash: 0.03, Hang: 0.01, NoiseTail: 0.02}.withDefaults()
	case "X-Gene":
		return Rates{CompileFail: 0.08, Crash: 0.05, Hang: 0.02, NoiseTail: 0.04}.withDefaults()
	}
	return Rates{CompileFail: 0.02, Crash: 0.04, Hang: 0.02, NoiseTail: 0.02}.withDefaults()
}

// Kind is the category of an injected fault.
type Kind uint8

const (
	// KindCompile is a permanent build failure.
	KindCompile Kind = iota
	// KindCrash is a transient run crash.
	KindCrash
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KindCompile:
		return "compile"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault is the error an Injector returns for a failed evaluation.
type Fault struct {
	Kind    Kind
	Problem string
	Config  string
	Attempt int
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faults: %s failure on %s config %s (attempt %d)",
		f.Kind, f.Problem, f.Config, f.Attempt+1)
}

// Injector wraps a Problem with deterministic fault injection. It is a
// search.Problem and a search.FullEvaluator; pair it with
// search.NewResilient to retry crashes and censor hangs.
type Injector struct {
	p     search.Problem
	rates Rates
	seed  uint64
	// attempts counts evaluations per configuration so per-attempt fault
	// rolls differ across retries while staying deterministic.
	attempts map[string]int
	counts   map[string]int
	warnings []string
}

// Wrap builds an injector around p with the given rates and seed.
// Out-of-range rates are corrected (see Rates.Normalize); the applied
// corrections are available from Warnings so callers can surface them
// as obs warning events.
func Wrap(p search.Problem, rates Rates, seed uint64) *Injector {
	norm, warnings := rates.Normalize()
	return &Injector{
		p: p, rates: norm.withDefaults(), seed: seed, warnings: warnings,
		attempts: map[string]int{}, counts: map[string]int{},
	}
}

// Warnings returns the rate corrections applied at Wrap time (empty for
// in-range rates).
func (in *Injector) Warnings() []string {
	return append([]string(nil), in.warnings...)
}

// Name implements search.Problem. The injector keeps the wrapped
// problem's identity: faults are a property of the harness, not a new
// problem.
func (in *Injector) Name() string { return in.p.Name() }

// Space implements search.Problem.
func (in *Injector) Space() *space.Space { return in.p.Space() }

// Rates returns the injector's (defaulted) rates.
func (in *Injector) Rates() Rates { return in.rates }

// Injected returns how many faults of each kind the injector has
// produced so far, keyed by "compile", "crash", "hang", "tail".
func (in *Injector) Injected() map[string]int {
	out := make(map[string]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// roll returns a deterministic uniform draw for one fault decision.
func (in *Injector) roll(tag, key string, attempt int) float64 {
	h := rng.Hash64(fmt.Sprintf("faults|%d|%s|%s|%s|%d", in.seed, in.p.Name(), tag, key, attempt))
	return rng.New(h).Float64()
}

// failed is the outcome of an attempt a fault stopped: no measurement,
// and the burned time charged to the search clock.
func failed(burned float64, err error) search.Outcome {
	return search.Outcome{RunTime: math.Inf(1), Cost: burned, Status: search.StatusFailed, Err: err}
}

// Evaluate implements search.Problem through search.EvaluateBackground.
func (in *Injector) Evaluate(c space.Config) (runTime, cost float64) {
	return search.EvaluateBackground(in, c)
}

// EvaluateFull implements search.FullEvaluator. A failed attempt
// returns a failed Outcome whose Err is the *Fault and whose Cost is the
// time the attempt actually burned (the full compile for a build
// failure; compile plus a partial run for a crash), which a resilient
// evaluator charges to the search clock. An interrupted or failed
// evaluation below is returned as it is; only the interrupted one does
// not count as an attempt.
func (in *Injector) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	out := search.EvaluateFull(ctx, in.p, c)
	if out.Interrupted() {
		return out
	}
	key := c.Key()
	attempt := in.attempts[key]
	in.attempts[key]++
	if out.Err != nil {
		return out
	}
	run, cost := out.RunTime, out.Cost
	compile := cost - run
	if compile < 0 {
		compile = 0
	}

	if in.roll("compile", key, 0) < in.rates.CompileFail {
		in.counts["compile"]++
		return failed(compile, &Fault{Kind: KindCompile, Problem: in.p.Name(), Config: key, Attempt: attempt})
	}
	if in.roll("crash", key, attempt) < in.rates.Crash {
		in.counts["crash"]++
		burned := compile + float64(in.roll("crashfrac", key, attempt)*run)
		return failed(burned, search.Transient(
			&Fault{Kind: KindCrash, Problem: in.p.Name(), Config: key, Attempt: attempt}))
	}
	if in.roll("hang", key, attempt) < in.rates.Hang {
		in.counts["hang"]++
		out.RunTime = float64(run * in.rates.HangFactor)
		out.Cost = compile + out.RunTime
		return out
	}
	if in.roll("tail", key, attempt) < in.rates.NoiseTail {
		in.counts["tail"]++
		h := rng.Hash64(fmt.Sprintf("faults|%d|%s|tailz|%s|%d", in.seed, in.p.Name(), key, attempt))
		z := rng.New(h).NormFloat64()
		if z < 0 {
			z = -z
		}
		out.RunTime = float64(run * math.Exp(z*in.rates.NoiseSigma))
		out.Cost = compile + out.RunTime
		return out
	}
	return out
}
