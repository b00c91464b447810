// Package spec is the one description of an evaluation: which problem
// (a SPAPT kernel, a mini-app, or an annotated kernel) runs on which
// simulated (machine, compiler, threads) target, under which fault and
// resilience settings, driven by which search algorithm. Every entry
// point — the CLIs, the remote worker, the service daemon, the
// experiments, and the public facade — fills a Spec and asks it for the
// problem, the evaluation stack, the driver, the cache scope, and the
// journal meta, so the stack a session runs and the strings that name
// it cannot drift between them.
package spec

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/annotate"
	"repro/internal/evalcache"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/opentuner"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/space"
)

// Spec is one evaluation: a problem on a target, its evaluation stack,
// and the search that drives it. The zero values of Compiler, Threads,
// and Algorithm mean the defaults Normalize fills in.
type Spec struct {
	// Problem names a SPAPT kernel (MM, ATAX, COR, LU) or a mini-app
	// (HPL, RT).
	Problem string
	// Annotation is the path of an annotated kernel file; when set it
	// overrides Problem.
	Annotation string
	// Machine, Compiler, and Threads pick the simulated target. The
	// mini-apps ignore Compiler and Threads.
	Machine  string
	Compiler string
	Threads  int
	// ForceOMP runs every kernel configuration with Threads, holding the
	// OpenMP pragmas fixed outside the search (Figure 5, Table V).
	ForceOMP bool
	// Faults injects evaluation failures at this total rate in [0,1):
	// the machine's failure profile scaled to the rate.
	Faults float64
	// Retries and Timeout are the resilient evaluator's budgets; the
	// evaluator wraps the problem when Faults or Timeout is set.
	Retries int
	Timeout float64
	// Seed drives the search's random streams and the fault injector's.
	Seed uint64
	// Algorithm is rs|sa|ga|ps|ensemble and Budget the evaluation budget.
	Algorithm string
	Budget    int
}

// algorithms lists the search algorithms Driver accepts.
var algorithms = []string{"rs", "sa", "ga", "ps", "ensemble"}

// Normalize fills the defaulted fields in place: the GNU compiler, one
// thread, and random search.
func (s *Spec) Normalize() {
	if s.Compiler == "" {
		s.Compiler = machine.GNU.Name
	}
	if s.Threads == 0 {
		s.Threads = 1
	}
	if s.Algorithm == "" {
		s.Algorithm = "rs"
	}
}

// Validate checks every field, resolves the machine and compiler names
// (for the mini-apps too, which ignore the compiler), and builds the
// problem once to verify the combination exists. A Spec that names no
// problem describes only a target — a remote worker learns its problems
// from the tasks it serves — and Validate then checks the target alone.
func (s Spec) Validate() error {
	if _, err := s.Driver(nil); err != nil {
		return err
	}
	switch {
	case s.Budget < 0:
		return fmt.Errorf("budget must be >= 0, got %d", s.Budget)
	case s.Threads < 1:
		return fmt.Errorf("threads must be >= 1, got %d", s.Threads)
	case s.Faults < 0 || s.Faults >= 1:
		return fmt.Errorf("faults must be in [0,1), got %v", s.Faults)
	case s.Retries < 0:
		return fmt.Errorf("retries must be >= 0, got %d", s.Retries)
	case s.Timeout < 0:
		return fmt.Errorf("timeout must be >= 0, got %v", s.Timeout)
	}
	if _, _, err := s.target(); err != nil || (s.Problem == "" && s.Annotation == "") {
		return err
	}
	_, err := s.Base()
	return err
}

// target resolves the machine and compiler names.
func (s Spec) target() (machine.Machine, machine.Compiler, error) {
	m, err := machine.ByName(s.Machine)
	if err != nil {
		return machine.Machine{}, machine.Compiler{}, err
	}
	comp, err := machine.CompilerByName(s.Compiler)
	return m, comp, err
}

// Base builds the bare problem: no fault or resilience layers.
func (s Spec) Base() (search.Problem, error) {
	if s.Annotation != "" {
		text, err := os.ReadFile(s.Annotation)
		if err != nil {
			return nil, err
		}
		k, err := annotate.Parse(string(text))
		if err != nil {
			return nil, err
		}
		return s.BaseFor(k)
	}
	switch s.Problem {
	case "HPL", "RT":
		m, err := machine.ByName(s.Machine)
		if err != nil {
			return nil, err
		}
		if s.Problem == "HPL" {
			return miniapps.NewProblem(miniapps.HPL(), m), nil
		}
		return miniapps.NewProblem(miniapps.RT(), m), nil
	}
	k, err := kernels.ByName(s.Problem)
	if err != nil {
		return nil, unknownProblem(s.Problem)
	}
	return s.BaseFor(k)
}

// BaseFor builds the bare problem for an already-built kernel (one
// parsed from annotation text, say) on the Spec's target. It is the one
// place a kernel meets its target, so every kernel gets the same
// compiler-availability check.
func (s Spec) BaseFor(k *kernels.Kernel) (search.Problem, error) {
	m, comp, err := s.target()
	if err != nil {
		return nil, err
	}
	if !m.SupportsCompiler(comp) {
		return nil, fmt.Errorf("compiler %s not available on %s", s.Compiler, s.Machine)
	}
	p := kernels.NewProblem(k, sim.Target{Machine: m, Compiler: comp, Threads: s.Threads})
	p.ForceOMP = s.ForceOMP
	return p, nil
}

// unknownProblem is the one error for a problem name nothing resolves.
func unknownProblem(name string) error {
	names := make([]string, 0, len(kernels.All())+2)
	for _, k := range kernels.All() {
		names = append(names, k.Name)
	}
	names = append(names, "HPL", "RT")
	return fmt.Errorf("unknown problem %q (known: %s)", name, strings.Join(names, ", "))
}

// Build constructs the evaluation stack: the base problem, plus the
// fault injector (when Faults > 0) under the resilient retry/timeout
// budgets (when Faults or Timeout is set). The injector is returned so
// the caller can surface its warnings; it is nil without faults.
func (s Spec) Build() (search.Problem, *faults.Injector, error) {
	p, err := s.Base()
	if err != nil || (s.Faults == 0 && s.Timeout == 0) {
		return p, nil, err
	}
	fp := search.Fallible(p)
	var inj *faults.Injector
	if s.Faults > 0 {
		inj = faults.Wrap(p, faults.Profile(s.Machine).ScaledTo(s.Faults), s.Seed)
		fp = inj
	}
	return search.NewResilient(fp, search.ResilientOptions{Retries: s.Retries, Timeout: s.Timeout}), inj, nil
}

// Scope derives the evaluation-cache scope: the problem name plus every
// evaluator setting that shapes outcomes. Specs that differ only in
// search algorithm, budget, or (when no faults are injected) seed share
// a scope — their evaluations are interchangeable by construction,
// which is what lets a cache warmed by one session serve another. See
// DESIGN.md §11.
func (s Spec) Scope() (string, error) {
	p, err := s.Base()
	if err != nil {
		return "", err
	}
	if s.Faults == 0 && s.Timeout == 0 {
		// Bare problem: the simulator is pure in (problem, config).
		return p.Name(), nil
	}
	settings := []string{
		"faults=" + strconv.FormatFloat(s.Faults, 'g', -1, 64),
		"retries=" + strconv.Itoa(s.Retries),
		"timeout=" + strconv.FormatFloat(s.Timeout, 'g', -1, 64),
	}
	if s.Faults > 0 {
		// The injector's rolls are a pure function of (seed, problem,
		// config, attempt): a different seed is a different distribution
		// of outcomes, so it partitions the key space.
		settings = append(settings, "seed="+strconv.FormatUint(s.Seed, 10))
	}
	return evalcache.Scope(p.Name(), settings...), nil
}

// MetaExtra pins every setting that shapes evaluation semantics into
// the journal meta, so a resume under different settings is refused
// instead of silently mixing two runs. The keys are cmd/autotune's flag
// names, so any journal resumes under `autotune -resume`. ForceOMP is
// absent: it is pinned by the problem name.
func (s Spec) MetaExtra() map[string]string {
	return map[string]string{
		"problem":    s.Problem,
		"annotation": s.Annotation,
		"machine":    s.Machine,
		"compiler":   s.Compiler,
		"threads":    strconv.Itoa(s.Threads),
		"algo":       s.Algorithm,
		"faults":     strconv.FormatFloat(s.Faults, 'g', -1, 64),
		"retries":    strconv.Itoa(s.Retries),
		"timeout":    strconv.FormatFloat(s.Timeout, 'g', -1, 64),
	}
}

// Driver returns the deterministic driver for the Spec's algorithm: the
// same closure serves fresh runs and journal replays, so both draw the
// same random streams. The ensemble stores its technique pulls in
// *pulls.
func (s Spec) Driver(pulls *map[string]int) (func(context.Context, search.Problem) *search.Result, error) {
	nmax, seed := s.Budget, s.Seed
	switch s.Algorithm {
	case "rs":
		return func(ctx context.Context, p search.Problem) *search.Result {
			return search.RS(ctx, p, nmax, rng.New(seed))
		}, nil
	case "sa":
		return func(ctx context.Context, p search.Problem) *search.Result {
			r := rng.New(seed)
			return search.Drive(ctx, p, search.NewAnneal(p.Space(), r, 0.95), nmax)
		}, nil
	case "ga":
		return func(ctx context.Context, p search.Problem) *search.Result {
			r := rng.New(seed)
			return search.Drive(ctx, p, search.NewGenetic(p.Space(), r, 16, 0.15), nmax)
		}, nil
	case "ps":
		return func(ctx context.Context, p search.Problem) *search.Result {
			r := rng.New(seed)
			return search.Drive(ctx, p, search.NewPattern(p.Space(), r, 4), nmax)
		}, nil
	case "ensemble":
		return func(ctx context.Context, p search.Problem) *search.Result {
			tuner := opentuner.New(opentuner.Options{NMax: nmax}, rng.New(seed))
			res, pl := tuner.Run(ctx, p)
			*pulls = pl
			return res
		}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (known: %s)", s.Algorithm, strings.Join(algorithms, ", "))
}

// RunJournaled runs the Spec's search over p through the crash-safe
// journal in dir, creating it or resuming bit-exactly from what it
// holds. Random search gets the checkpoint fast path: resume continues
// directly from the restored sampler stream, no replay.
func (s Spec) RunJournaled(ctx context.Context, dir string, p search.Problem, wopt journal.WrapOptions,
	pulls *map[string]int) (*search.Result, *journal.RunInfo, error) {

	if s.Algorithm == "rs" {
		return journal.RunRS(ctx, dir, p, s.Budget, s.Seed, s.MetaExtra(), wopt)
	}
	drive, err := s.Driver(pulls)
	if err != nil {
		return nil, nil, err
	}
	meta := journal.Meta{Problem: p.Name(), Algorithm: s.Algorithm, Seed: s.Seed, NMax: s.Budget, Extra: s.MetaExtra()}
	return journal.Run(ctx, dir, meta, p, wopt, drive)
}

// Throttled pauses a fixed wall-clock duration before each evaluation.
// The pause is interruptible and changes nothing about outcomes, so it
// is neither journaled nor part of the cache scope; it exists to make
// fast simulated runs interruptible (demos, crash drills, e2e tests).
type Throttled struct {
	search.Problem
	Wait time.Duration
}

// EvaluateFull waits, then evaluates through the wrapped problem.
func (t Throttled) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	timer := time.NewTimer(t.Wait)
	select {
	case <-ctx.Done():
		timer.Stop()
	case <-timer.C:
	}
	return search.EvaluateFull(ctx, t.Problem, c)
}
