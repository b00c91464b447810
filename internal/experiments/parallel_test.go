package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker/remote"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/spec"
)

// stripWallTime reduces a metrics snapshot to its schedule-independent
// content: counters and gauges verbatim, histogram lines cut down to
// name and observation count. Histogram means/extremes are wall-clock
// measurements and legitimately vary between runs; everything else must
// not.
func stripWallTime(snapshot string) string {
	var b strings.Builder
	inHists := false
	for _, line := range strings.Split(snapshot, "\n") {
		if !strings.HasPrefix(line, "  ") {
			inHists = line == "histograms:"
			b.WriteString(line)
			b.WriteByte('\n')
			continue
		}
		if !inHists {
			b.WriteString(line)
			b.WriteByte('\n')
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			fmt.Fprintf(&b, "  %s %s\n", f[0], f[1])
		}
	}
	return b.String()
}

// TestParallelMatchesSerial is the headline invariant of the parallel
// engine: for every experiment, running with 8 workers produces output
// bit-identical to running with 1 worker — same report text, same
// tables, same named values, and the same telemetry counters (only
// wall-clock histogram statistics may differ).
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	cfg := Config{Seed: 9, NMax: 12, PoolSize: 200, Trees: 10, CorrelationSamples: 30}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial, parallel := cfg, cfg
			serial.Workers = 1
			parallel.Workers = 8
			want, err := Run(context.Background(), id, serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(context.Background(), id, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if got.Text != want.Text {
				t.Errorf("report text differs between workers=8 and workers=1:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
					want.Text, got.Text)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("value count differs: workers=8 has %d, workers=1 has %d", len(got.Values), len(want.Values))
			}
			for name, w := range want.Values {
				if g, ok := got.Values[name]; !ok || g != w {
					t.Errorf("value %q differs: workers=8 %v, workers=1 %v", name, g, w)
				}
			}
			if len(got.Tables) != len(want.Tables) {
				t.Fatalf("table count differs: workers=8 has %d, workers=1 has %d", len(got.Tables), len(want.Tables))
			}
			for i := range want.Tables {
				var wbuf, gbuf bytes.Buffer
				if err := want.Tables[i].WriteCSV(&wbuf); err != nil {
					t.Fatal(err)
				}
				if err := got.Tables[i].WriteCSV(&gbuf); err != nil {
					t.Fatal(err)
				}
				if gbuf.String() != wbuf.String() {
					t.Errorf("table %d CSV differs:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
						i, wbuf.String(), gbuf.String())
				}
			}
			if g, w := stripWallTime(got.Metrics), stripWallTime(want.Metrics); g != w {
				t.Errorf("telemetry counters differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", w, g)
			}
		})
	}
}

// TestRunCellsReplaysEventsInInputOrder: cells run on any worker in any
// order, but each cell's telemetry is buffered and replayed to the
// parent sink in input order, so a traced parallel run emits the exact
// event stream a serial run would.
func TestRunCellsReplaysEventsInInputOrder(t *testing.T) {
	const n = 24
	sink := &obs.MemorySink{}
	ctx := obs.WithTracer(context.Background(), obs.New(sink))
	cfg := Config{Workers: 8}
	err := runCells(ctx, cfg, "replay-test", n, func(ctx context.Context, i int) error {
		tr := obs.FromContext(ctx)
		tr.Warn("cell", fmt.Sprintf("first-%d", i))
		tr.Warn("cell", fmt.Sprintf("second-%d", i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	warns := sink.ByKind(obs.KindWarning)
	if len(warns) != 2*n {
		t.Fatalf("replayed %d cell events, want %d", len(warns), 2*n)
	}
	for i := 0; i < n; i++ {
		if got, want := warns[2*i].Detail, fmt.Sprintf("first-%d", i); got != want {
			t.Fatalf("event %d is %q, want %q (replay out of input order)", 2*i, got, want)
		}
		if got, want := warns[2*i+1].Detail, fmt.Sprintf("second-%d", i); got != want {
			t.Fatalf("event %d is %q, want %q (cell's events interleaved)", 2*i+1, got, want)
		}
	}
	// The engine's own pool telemetry reaches the parent directly.
	if len(sink.ByKind(obs.KindPoolStart)) != 1 || len(sink.ByKind(obs.KindPoolFinish)) != 1 {
		t.Fatal("pool start/finish events missing from parent sink")
	}
	if got := len(sink.ByKind(obs.KindWorkerTask)); got != n {
		t.Fatalf("parent sink saw %d worker-task events, want %d", got, n)
	}
}

// stripBroker drops the worker pool's own metric lines from a snapshot:
// the broker.* submit/dispatch/lease telemetry, which a direct run does
// not have, and the inline-degradation count (tasks submitted before a
// worker connected run inline). Both are scheduling-dependent by
// contract. Everything else must match a direct run exactly.
func stripBroker(snapshot string) string {
	var b strings.Builder
	for _, line := range strings.Split(snapshot, "\n") {
		if strings.Contains(line, "broker.") || strings.Contains(line, obs.MetricDegraded) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// serveWorkers connects n remote worker sessions, resolving names as
// brokerd does, to the pool that will listen at addr, redialing until it
// is up. It returns a stop function that disconnects them and waits for
// them to exit, and the set of problem names they served.
func serveWorkers(t *testing.T, addr string, n int) (stop func(), served *sync.Map) {
	t.Helper()
	resolver, err := spec.Resolver("")
	if err != nil {
		t.Fatal(err)
	}
	served = new(sync.Map)
	resolve := func(name string) (search.Problem, error) {
		p, err := resolver(name)
		if err == nil {
			served.Store(name, true)
		}
		return p, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &remote.Worker{
			Resolve:     resolve,
			Label:       fmt.Sprintf("w%d", i),
			Backoff:     time.Millisecond,
			BackoffCap:  5 * time.Millisecond,
			MaxAttempts: 1 << 20, // the pool listens only once the experiment starts
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx, func(ctx context.Context) (net.Conn, error) { return remote.Dial(ctx, addr) })
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}, served
}

// TestBrokerMatchesDirect is the worker-pool counterpart of
// TestParallelMatchesSerial: for every experiment, serving evaluations
// to remote worker sessions (a pool on the context, listening on a unix
// socket for in-test workers) produces output bit-identical to evaluating
// inline — same report text, tables, named values, and the same search
// telemetry (the pool contributes only its own broker.* submit and
// lease metrics on top). Every experiment that evaluates anything, all
// but the static Tables I-III, must lease work to the workers: a
// problem built outside problemFor would run inline and pass the
// comparison without ever reaching them.
func TestBrokerMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	cfg := Config{Seed: 9, NMax: 12, PoolSize: 200, Trees: 10, CorrelationSamples: 30}
	static := map[string]bool{"table1": true, "table2": true, "table3": true}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want, err := Run(context.Background(), id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			addr := "unix:" + filepath.Join(t.TempDir(), "w.sock")
			pool, err := remote.OpenPool(addr, 0)
			if err != nil {
				t.Fatal(err)
			}
			stop, served := serveWorkers(t, addr, 2)
			got, err := Run(remote.Into(context.Background(), pool), id, cfg)
			pool.Close()
			stop()
			if err != nil {
				t.Fatal(err)
			}
			leases := "0"
			for _, line := range strings.Split(got.Metrics, "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == obs.MetricRemoteLeases {
					leases = f[1]
				}
			}
			switch leased := leases != "0"; {
			case static[id] && leased:
				t.Errorf("%s evaluates nothing but leased %s evaluations", id, leases)
			case !static[id] && !leased:
				t.Errorf("%s leased no evaluation to the remote workers: its problems bypassed the pool", id)
			}
			if id == "ext-inputsize" {
				// The off-size targets reach the workers like every other cell.
				for _, n := range []int{1000, 1500, 3000} {
					name := fmt.Sprintf("MM_n%d@Sandybridge/gnu-4.4.7/t1", n)
					if _, ok := served.Load(name); !ok {
						t.Errorf("no worker served %s", name)
					}
				}
			}
			if got.Text != want.Text {
				t.Errorf("report text differs between brokered and direct:\n--- direct ---\n%s\n--- brokered ---\n%s",
					want.Text, got.Text)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("value count differs: brokered has %d, direct has %d", len(got.Values), len(want.Values))
			}
			for name, w := range want.Values {
				if g, ok := got.Values[name]; !ok || g != w {
					t.Errorf("value %q differs: brokered %v, direct %v", name, g, w)
				}
			}
			if g, w := stripBroker(stripWallTime(got.Metrics)), stripBroker(stripWallTime(want.Metrics)); g != w {
				t.Errorf("telemetry counters differ:\n--- direct ---\n%s\n--- brokered ---\n%s", w, g)
			}
		})
	}
}
