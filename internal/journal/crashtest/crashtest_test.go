package crashtest

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/broker/remote"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// TestMain doubles as the SIGKILL child: when re-exec'd with
// CRASHTEST_CHILD_DIR set, it runs a deliberately slow journaled search
// until the parent kills it. CRASHTEST_CHILD_REMOTE=1 serves the
// child's evaluations to a loopback remote worker under network faults,
// exercising the remote journal path (in-flight markers included).
func TestMain(m *testing.M) {
	if dir := os.Getenv("CRASHTEST_CHILD_DIR"); dir != "" {
		switch {
		case os.Getenv("CRASHTEST_CHILD_REMOTE") == "1":
			remoteChildMain(dir)
		default:
			childMain(dir)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bowl is the deterministic synthetic problem of the search tests.
type bowl struct {
	spc    *space.Space
	target []int
}

func newBowl() *bowl {
	spc := space.New(
		space.NewIntRange("a", 0, 9),
		space.NewIntRange("b", 0, 9),
		space.NewIntRange("c", 0, 9),
		space.NewIntRange("d", 0, 9),
	)
	return &bowl{spc: spc, target: []int{3, 7, 1, 5}}
}

func (b *bowl) Name() string        { return "bowl" }
func (b *bowl) Space() *space.Space { return b.spc }
func (b *bowl) Evaluate(c space.Config) (float64, float64) {
	d := 0.0
	for i, t := range b.target {
		diff := float64(c[i] - t)
		d += diff * diff
	}
	run := 1 + d
	return run, run + 0.5
}

// newFaulty layers deterministic fault injection and retry/timeout
// budgets over the bowl, so crash trials cover failed, retried, and
// censored records — the journal must reproduce all of them.
func newFaulty(seed uint64) search.Problem {
	rates := faults.Rates{CompileFail: 0.08, Crash: 0.1, Hang: 0.05}
	return search.NewResilient(faults.Wrap(newBowl(), rates, seed),
		search.ResilientOptions{Retries: 2, Timeout: 120})
}

// rsTrial is the random-search trial (fast-path capable).
func rsTrial(seed uint64, nmax int) Trial {
	return Trial{
		NewProblem: func() search.Problem { return newFaulty(seed) },
		Plain: func(ctx context.Context) *search.Result {
			return search.RS(ctx, newFaulty(seed), nmax, rng.New(seed))
		},
		Journaled: func(ctx context.Context, dir string, p search.Problem) (*search.Result, *journal.RunInfo, error) {
			return journal.RunRS(ctx, dir, p, nmax, seed, nil, journal.WrapOptions{CheckpointEvery: 4})
		},
	}
}

// quadModel is a deterministic surrogate standing in for a fitted
// forest: any pure function of the encoded features works, since replay
// only requires that predictions recompute identically.
type quadModel struct{}

func (quadModel) Predict(x []float64) float64 {
	s := 1.0
	for i, v := range x {
		d := v - 0.35
		s += d * d * float64(i+1)
	}
	return s
}

// rspTrial is the pruning-search trial: resumed through the general
// replay path (model decisions and skips recompute during replay).
func rspTrial(seed uint64, nmax int) Trial {
	drive := func(ctx context.Context, p search.Problem) *search.Result {
		return search.RSp(ctx, p, quadModel{},
			search.RSpOptions{NMax: nmax, PoolSize: 400, DeltaPct: 30},
			rng.NewNamed(seed, "stream"), rng.NewNamed(seed, "pool"))
	}
	meta := journal.Meta{Problem: "bowl", Algorithm: "RSp", Seed: seed, NMax: nmax}
	return Trial{
		NewProblem: func() search.Problem { return newFaulty(seed) },
		Plain: func(ctx context.Context) *search.Result {
			return drive(ctx, newFaulty(seed))
		},
		Journaled: func(ctx context.Context, dir string, p search.Problem) (*search.Result, *journal.RunInfo, error) {
			return journal.Run(ctx, dir, meta, p, journal.WrapOptions{CheckpointEvery: 4}, drive)
		},
	}
}

func TestRSTruncationKillPoints(t *testing.T) {
	n, err := rsTrial(101, 35).Truncations(t.TempDir(), 22, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Fatalf("only %d kill points exercised, want >= 20", n)
	}
	t.Logf("RS: %d truncation kill points resumed byte-identical", n)
}

func TestRSpTruncationKillPoints(t *testing.T) {
	n, err := rspTrial(103, 30).Truncations(t.TempDir(), 22, 11)
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Fatalf("only %d kill points exercised, want >= 20", n)
	}
	t.Logf("RSp: %d truncation kill points resumed byte-identical", n)
}

func TestRSGracefulCancelFastPath(t *testing.T) {
	n, err := rsTrial(107, 35).Cancellations(t.TempDir(), 20, 30, 13, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RS: %d graceful-cancel points resumed via the fast path", n)
}

func TestRSpGracefulCancelReplay(t *testing.T) {
	n, err := rspTrial(109, 30).Cancellations(t.TempDir(), 10, 25, 17, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RSp: %d graceful-cancel points resumed via replay", n)
}

// ---------------------------------------------------------------------------
// SIGKILL authenticity trial: a real child process is killed -9 mid-run
// (no graceful drain, arbitrary kill instant) and its journal resumed.

const (
	sigkillSeed = 211
	sigkillNMax = 400
)

// slowBowl wall-sleeps per evaluation so the parent's SIGKILL lands
// mid-run. The sleep changes nothing about outcomes, only wall time.
type slowBowl struct{ *bowl }

func (s slowBowl) Evaluate(c space.Config) (float64, float64) {
	time.Sleep(time.Millisecond)
	return s.bowl.Evaluate(c)
}

func childMain(dir string) {
	_, _, err := journal.RunRS(context.Background(), dir, slowBowl{newBowl()},
		sigkillNMax, sigkillSeed, nil, journal.WrapOptions{CheckpointEvery: 3})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		os.Exit(1)
	}
}

// remoteChildMain is the remote-transport SIGKILL child: the same slow
// journaled search, but every evaluation travels the wire to a loopback
// remote worker session under injected network faults, with in-flight
// work journaled. The parent resumes the journal WITHOUT any broker or
// worker, proving remote journal state is interchangeable with inline
// state.
func remoteChildMain(dir string) {
	b := broker.New(broker.Options{
		Retries: 100,
		Backoff: 100 * time.Microsecond,
	})
	defer b.Close()
	pool := remote.NewPool(b, remote.PoolOptions{
		LeaseTicks: 4, TickEvery: 5 * time.Millisecond, MaxMissedBeats: 20,
		Faults: remote.SeededNetFaults{Seed: sigkillSeed, DropRate: 0.05, DupRate: 0.1, ReorderRate: 0.1},
	})
	defer pool.Close()

	p := slowBowl{newBowl()}
	w := &remote.Worker{
		Resolve:   func(string) (search.Problem, error) { return p, nil },
		BeatEvery: 2 * time.Millisecond,
		Faults:    remote.SeededNetFaults{Seed: sigkillSeed + 1, DropRate: 0.05, DupRate: 0.1},
	}
	wctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(wctx, func(ctx context.Context) (net.Conn, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			client, server := net.Pipe()
			go func() {
				if _, err := pool.AddConn(server); err != nil {
					_ = server.Close()
				}
			}()
			return client, nil
		})
	}()

	_, _, err := journal.RunRS(context.Background(), dir, b.Problem(p),
		sigkillNMax, sigkillSeed, nil,
		journal.WrapOptions{CheckpointEvery: 3, TrackInFlight: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest remote child:", err)
		os.Exit(1)
	}
}

func TestSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "journal")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CRASHTEST_CHILD_DIR="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the child journal some entries, then kill it without warning.
	time.Sleep(120 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	survivors := 0
	if journal.Exists(dir) {
		s, err := journal.Open(dir)
		if err != nil {
			t.Fatalf("journal unrecoverable after SIGKILL: %v", err)
		}
		survivors = s.Len()
		s.Close()
	}
	t.Logf("child SIGKILLed with %d durable entries", survivors)

	ref := search.RS(context.Background(), newBowl(), sigkillNMax, rng.New(sigkillSeed))
	got, info, err := journal.RunRS(context.Background(), dir, newBowl(),
		sigkillNMax, sigkillSeed, nil, journal.WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done {
		t.Fatalf("resume did not complete: %+v", info)
	}
	if err := Compare(ref, got); err != nil {
		t.Fatal(err)
	}
}

// TestSIGKILLRemoteResume kills -9 a child whose evaluations travel the
// remote transport (loopback worker, drop/dup/reorder faults, short
// leases) with in-flight journaling, then resumes the journal inline —
// no broker, no pool, no worker. The resumed result must match the
// plain reference exactly: network faults, lease reclaims, and the kill
// itself leave no trace in the recovered state.
func TestSIGKILLRemoteResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec trial skipped in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "journal")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CRASHTEST_CHILD_DIR="+dir, "CRASHTEST_CHILD_REMOTE=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	survivors, inflight := 0, false
	if journal.Exists(dir) {
		s, err := journal.Open(dir)
		if err != nil {
			t.Fatalf("journal unrecoverable after SIGKILL: %v", err)
		}
		survivors = s.Len()
		_, inflight = s.InFlight()
		s.Close()
	}
	t.Logf("remote child SIGKILLed with %d durable entries (in-flight marker: %v)", survivors, inflight)

	ref := search.RS(context.Background(), newBowl(), sigkillNMax, rng.New(sigkillSeed))
	got, info, err := journal.RunRS(context.Background(), dir, newBowl(),
		sigkillNMax, sigkillSeed, nil, journal.WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done {
		t.Fatalf("resume did not complete: %+v", info)
	}
	if err := Compare(ref, got); err != nil {
		t.Fatal(err)
	}
}
