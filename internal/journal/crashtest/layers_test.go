package crashtest

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/evalcache"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/search"
	"repro/internal/space"
	"repro/internal/spec"
)

// The evaluation-layer contract, checked for every layer in the tree.
// It lives in this package because the canceller is unexported and
// this harness already sits above every other layer's package.

// probeKey keys the context value the contract test sends down a stack.
type probeKey struct{}

// probe is the bottom of every stack under test: a deterministic
// FullEvaluator that records the probe value of each context it sees.
type probe struct {
	spc  *space.Space
	seen []any
}

func newProbe() *probe {
	return &probe{spc: space.New(space.NewIntRange("x", 0, 9), space.NewIntRange("y", 0, 9))}
}

func (p *probe) Name() string        { return "probe@test" }
func (p *probe) Space() *space.Space { return p.spc }
func (p *probe) Evaluate(c space.Config) (float64, float64) {
	return search.EvaluateBackground(p, c)
}
func (p *probe) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	p.seen = append(p.seen, ctx.Value(probeKey{}))
	run := 1 + float64(c[0]) + 0.1*float64(c[1])
	return search.Outcome{RunTime: run, Cost: run + 0.5, Status: search.StatusOK}
}

// layerCase builds one layer over inner, hands it to use, and returns a
// snapshot of what the layer keeps afterwards: its memo, its journal,
// its counters ("" for a layer that keeps nothing).
type layerCase struct {
	name string
	with func(t *testing.T, inner search.Problem, use func(layer search.Problem)) string
}

var contractRates = faults.Rates{CompileFail: 0.15, Crash: 0.3, Hang: 0.1, NoiseTail: 0.2}

func layerCases() []layerCase {
	return []layerCase{
		{"faults.Injector", func(t *testing.T, inner search.Problem, use func(search.Problem)) string {
			inj := faults.Wrap(inner, contractRates, 7)
			use(inj)
			return fmt.Sprint(inj.Injected())
		}},
		{"search.Resilient over faults.Injector", func(t *testing.T, inner search.Problem, use func(search.Problem)) string {
			inj := faults.Wrap(inner, contractRates, 7)
			use(search.NewResilient(inj, search.ResilientOptions{Retries: 2, Timeout: 8}))
			return fmt.Sprint(inj.Injected())
		}},
		{"evalcache.CachedProblem", func(t *testing.T, inner search.Problem, use func(search.Problem)) string {
			ch := evalcache.New()
			cp := ch.Problem(inner, "probe|contract")
			use(cp)
			var memo bytes.Buffer
			if err := ch.Export(&memo); err != nil {
				t.Fatal(err)
			}
			hits, misses := cp.Counts()
			return fmt.Sprintf("hits=%d misses=%d memo=%s", hits, misses, memo.String())
		}},
		{"journal.Recorder", func(t *testing.T, inner search.Problem, use func(search.Problem)) string {
			dir := filepath.Join(t.TempDir(), "journal")
			meta := journal.Meta{Problem: inner.Name(), Algorithm: "contract", Seed: 1, NMax: 1}
			if _, _, err := journal.Run(context.Background(), dir, meta, inner, journal.WrapOptions{},
				func(_ context.Context, p search.Problem) *search.Result {
					use(p)
					return &search.Result{}
				}); err != nil {
				t.Fatal(err)
			}
			s, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			recs, err := s.Records()
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(recs)
		}},
		{"spec.Throttled", func(t *testing.T, inner search.Problem, use func(search.Problem)) string {
			use(spec.Throttled{Problem: inner, Wait: time.Microsecond})
			return ""
		}},
		{"crashtest canceller", func(t *testing.T, inner search.Problem, use func(search.Problem)) string {
			use(&canceller{p: inner, n: 1 << 30, cancel: func() {}})
			return ""
		}},
		{"remote.BrokeredProblem on a closed pool", func(t *testing.T, inner search.Problem, use func(search.Problem)) string {
			pool := remote.NewPool(remote.PoolOptions{})
			pool.Close()
			use(pool.Problem(inner))
			return ""
		}},
	}
}

// contractConfigs revisits configurations, so memo hits, journal
// growth and per-configuration attempt counters all show.
func contractConfigs() []space.Config {
	out := make([]space.Config, 16)
	for i := range out {
		out[i] = space.Config{i % 6, (i * 7) % 10}
	}
	return out
}

// reduce renders everything of an outcome a search can observe.
func reduce(out search.Outcome) string {
	return fmt.Sprintf("run=%v cost=%v status=%v retries=%d err=%v",
		out.RunTime, out.Cost, out.Status, out.Retries, out.Err)
}

// TestLayerContract checks every evaluation layer against the one
// layer contract: it implements search.FullEvaluator; a context value
// reaches the layer below; a cancelled context yields an Interrupted
// outcome and leaves no record, memo entry or attempt behind; and the
// context-free Evaluate has exactly the effect of EvaluateFull under
// context.Background — the same outcomes and the same memo, journal
// and counter changes.
func TestLayerContract(t *testing.T) {
	bg := context.Background()
	configs := contractConfigs()
	for _, tc := range layerCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("context reaches below", func(t *testing.T) {
				pr := newProbe()
				ctx := context.WithValue(bg, probeKey{}, "down")
				tc.with(t, pr, func(l search.Problem) {
					if _, ok := l.(search.FullEvaluator); !ok {
						t.Fatalf("%T does not implement search.FullEvaluator", l)
					}
					for _, c := range configs {
						search.EvaluateFull(ctx, l, c)
					}
				})
				if len(pr.seen) == 0 {
					t.Fatal("the layer below was never reached")
				}
				for i, v := range pr.seen {
					if v != "down" {
						t.Fatalf("evaluation %d below the layer saw context value %v, want %q", i, v, "down")
					}
				}
			})

			t.Run("cancelled context interrupts and leaves nothing", func(t *testing.T) {
				var want, got []string
				wantState := tc.with(t, newProbe(), func(l search.Problem) {
					for _, c := range configs {
						want = append(want, reduce(search.EvaluateFull(bg, l, c)))
					}
				})
				cancelled, cancel := context.WithCancel(bg)
				cancel()
				gotState := tc.with(t, newProbe(), func(l search.Problem) {
					fe := l.(search.FullEvaluator)
					for _, c := range configs {
						if out := fe.EvaluateFull(cancelled, c); !out.Interrupted() {
							t.Fatalf("cancelled evaluation of %v returned %s, want Interrupted", c, reduce(out))
						}
						got = append(got, reduce(search.EvaluateFull(bg, l, c)))
					}
				})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("evaluation %d after a cancelled one: %s, want %s", i, got[i], want[i])
					}
				}
				if gotState != wantState {
					t.Fatalf("cancelled evaluations left state behind:\n got %s\nwant %s", gotState, wantState)
				}
			})

			t.Run("Evaluate is EvaluateFull under Background", func(t *testing.T) {
				var viaFull, viaEval []string
				fullState := tc.with(t, newProbe(), func(l search.Problem) {
					for _, c := range configs {
						out := search.EvaluateFull(bg, l, c)
						viaFull = append(viaFull, fmt.Sprint(out.RunTime, out.Cost))
					}
				})
				evalState := tc.with(t, newProbe(), func(l search.Problem) {
					for _, c := range configs {
						run, cost := l.Evaluate(c)
						viaEval = append(viaEval, fmt.Sprint(run, cost))
					}
				})
				for i := range viaFull {
					if viaEval[i] != viaFull[i] {
						t.Fatalf("evaluation %d: Evaluate gave %s, EvaluateFull %s", i, viaEval[i], viaFull[i])
					}
				}
				if evalState != fullState {
					t.Fatalf("Evaluate and EvaluateFull left different state:\nEvaluate     %s\nEvaluateFull %s", evalState, fullState)
				}
			})
		})
	}
}
