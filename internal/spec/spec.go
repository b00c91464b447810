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
	"sync"
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

// Resolve is the one call that turns a Spec into a problem: it fills the
// defaulted fields in place (Normalize), checks every field, resolves
// the machine and compiler names (for the mini-apps too, which ignore
// the compiler), and returns the bare problem, built once.
func (s *Spec) Resolve() (search.Problem, error) {
	s.Normalize()
	if err := s.check(); err != nil {
		return nil, err
	}
	if _, _, err := s.target(); err != nil {
		return nil, err
	}
	return s.Base()
}

// check validates every field but the problem and target names.
func (s Spec) check() error {
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
	return nil
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

// Base builds the bare problem: no fault or resilience layers, and no
// checks beyond resolving the names (Resolve checks every field).
func (s Spec) Base() (search.Problem, error) {
	if s.Annotation != "" {
		k, err := s.annotated()
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

// annotated parses the Spec's annotated kernel file.
func (s Spec) annotated() (*kernels.Kernel, error) {
	text, err := os.ReadFile(s.Annotation)
	if err != nil {
		return nil, err
	}
	return annotate.Parse(string(text))
}

// Named is the one inverse of Problem.Name(): it returns the Spec that
// builds the problem called name — "LU@Power7/gnu-4.4.7/t1",
// "MM@XeonPhi/intel-15.0.1/t60+omp", "HPL@Power7", an off-size
// "MM_n1000@Sandybridge/gnu-4.4.7/t1", or s's annotated kernel under its
// parsed name — together with that bare problem. The returned Spec keeps
// s's evaluator settings (faults, retries, timeout, seed); it keeps s's
// annotation only for the annotated kernel's own name. A name whose
// rebuilt problem carries a different name (an unqualified "LU",
// "MM_n2000@…", "…/t0") is refused, as is one naming an unknown
// problem, machine or compiler, or a compiler the machine lacks.
func (s Spec) Named(name string) (Spec, search.Problem, error) {
	problem, target, ok := strings.Cut(name, "@")
	if !ok {
		return Spec{}, nil, fmt.Errorf("problem name %q names no target", name)
	}
	target, omp := strings.CutSuffix(target, "+omp")
	m, target, _ := strings.Cut(target, "/")
	comp, threads, _ := strings.Cut(target, "/")
	// A malformed count parses as 0; the name check below refuses it.
	n, _ := strconv.Atoi(strings.TrimPrefix(threads, "t"))
	s.Problem, s.Machine, s.Compiler, s.Threads, s.ForceOMP = problem, m, comp, n, omp
	s.Normalize()
	if s.Annotation != "" {
		k, err := s.annotated()
		if err != nil {
			return Spec{}, nil, err
		}
		if k.Name != problem {
			s.Annotation = ""
		}
	}
	p, err := s.Base()
	if err != nil {
		return Spec{}, nil, err
	}
	if p.Name() != name {
		return Spec{}, nil, fmt.Errorf("problem name %q is not the name of the problem it builds, %q", name, p.Name())
	}
	return s, p, nil
}

// Resolver returns the one wire-name resolver: it serves every problem
// Named accepts, each built as the full evaluation stack s's evaluator
// settings describe (Build). Only those settings and the annotation
// matter; the names carry the rest. They are checked once, up front.
// Problems are cached per name, so a re-dispatched task evaluates
// against the same fault injector, and the cache is goroutine-safe for
// workers that evaluate tasks concurrently.
func (s Spec) Resolver() (func(name string) (search.Problem, error), error) {
	s.Normalize()
	if err := s.check(); err != nil {
		return nil, err
	}
	if s.Annotation != "" {
		if _, err := s.annotated(); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	cache := map[string]search.Problem{}
	return func(name string) (search.Problem, error) {
		mu.Lock()
		defer mu.Unlock()
		if p, ok := cache[name]; ok {
			return p, nil
		}
		t, p, err := s.Named(name)
		if err != nil {
			return nil, err
		}
		p, _ = t.Build(p)
		cache[name] = p
		return p, nil
	}, nil
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

// Build layers the evaluation stack over base, the bare problem Resolve
// or Base built: the fault injector (when Faults > 0) under the
// resilient retry/timeout budgets (when Faults or Timeout is set). The
// injector is returned so the caller can surface its warnings; it is nil
// without faults.
func (s Spec) Build(base search.Problem) (search.Problem, *faults.Injector) {
	if s.Faults == 0 && s.Timeout == 0 {
		return base, nil
	}
	var inj *faults.Injector
	if s.Faults > 0 {
		inj = faults.Wrap(base, faults.Profile(s.Machine).ScaledTo(s.Faults), s.Seed)
		base = inj
	}
	return search.NewResilient(base, search.ResilientOptions{Retries: s.Retries, Timeout: s.Timeout}), inj
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

// journalMeta is the journal meta of the Spec's run over the problem
// named problem. Extra pins every setting that shapes evaluation
// semantics, so a resume under different settings is refused instead of
// silently mixing two runs; its keys are cmd/autotune's flag names, so
// any journal resumes under `autotune -resume`. ForceOMP is absent: the
// problem name pins it. Random search keeps the algorithm name "RS" it
// has always been journaled under, so existing journals still resume.
func (s Spec) journalMeta(problem string) journal.Meta {
	algo := s.Algorithm
	if algo == "rs" {
		algo = "RS"
	}
	return journal.Meta{Problem: problem, Algorithm: algo, Seed: s.Seed, NMax: s.Budget, Extra: map[string]string{
		"problem":    s.Problem,
		"annotation": s.Annotation,
		"machine":    s.Machine,
		"compiler":   s.Compiler,
		"threads":    strconv.Itoa(s.Threads),
		"algo":       s.Algorithm,
		"faults":     strconv.FormatFloat(s.Faults, 'g', -1, 64),
		"retries":    strconv.Itoa(s.Retries),
		"timeout":    strconv.FormatFloat(s.Timeout, 'g', -1, 64),
	}}
}

// RunJournaled runs the Spec's search over p through the crash-safe
// journal in dir, creating it or resuming bit-exactly from what it
// holds. Every algorithm resumes the same way: Driver's closure re-runs
// from the seed while the journal serves, and verifies, the recorded
// prefix.
func (s Spec) RunJournaled(ctx context.Context, dir string, p search.Problem, wopt journal.WrapOptions,
	pulls *map[string]int) (*search.Result, *journal.RunInfo, error) {

	drive, err := s.Driver(pulls)
	if err != nil {
		return nil, nil, err
	}
	return journal.Run(ctx, dir, s.journalMeta(p.Name()), p, wopt, drive)
}

// Throttled pauses a fixed wall-clock duration before each evaluation.
// The pause is interruptible and changes nothing about outcomes, so it
// is neither journaled nor part of the cache scope; it exists to make
// fast simulated runs interruptible (demos, crash drills, e2e tests).
type Throttled struct {
	search.Problem
	Wait time.Duration
}

// Evaluate implements search.Problem through search.EvaluateBackground,
// so the context-free path waits too.
func (t Throttled) Evaluate(c space.Config) (runTime, cost float64) {
	return search.EvaluateBackground(t, c)
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
