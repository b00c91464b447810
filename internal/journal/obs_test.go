package journal

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// A traced journaled run must emit one JournalAppend event per
// evaluation and exactly one Checkpoint event, the completion marker,
// and tracing must not change the journaled result. An interrupted
// traced run writes no checkpoint at all.
func TestJournalEmitsAppendAndCheckpointEvents(t *testing.T) {
	const nmax, seed = 30, 29
	ref, _, err := runRS(context.Background(), t.TempDir(), newFaulty(seed), nmax, seed, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}

	sink := &obs.MemorySink{}
	reg := obs.NewRegistry()
	ctx := obs.WithTracer(context.Background(), obs.New(obs.Multi(sink, obs.NewMetricsSink(reg))))
	got, info, err := runRS(ctx, t.TempDir(), newFaulty(seed), nmax, seed, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done {
		t.Fatalf("info = %+v", info)
	}
	sameResults(t, ref, got)

	appends := sink.ByKind(obs.KindJournalAppend)
	if len(appends) != len(got.Records) {
		t.Fatalf("%d journal-append events for %d records", len(appends), len(got.Records))
	}
	cps := sink.ByKind(obs.KindCheckpoint)
	if len(cps) != 1 {
		t.Fatalf("%d checkpoint events, want exactly the completion marker", len(cps))
	}
	if cps[0].Detail != "done" || cps[0].N != len(got.Records) {
		t.Fatalf("checkpoint event = %+v", cps[0])
	}
	if n := reg.Counter(obs.MetricCheckpoints).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricCheckpoints, n)
	}

	sink = &obs.MemorySink{}
	ctx, cancel := context.WithCancel(obs.WithTracer(context.Background(), obs.New(sink)))
	defer cancel()
	dir := t.TempDir()
	partial, info, err := runRS(ctx, dir, &cancelAfter{Problem: newFaulty(seed), n: 12, cancel: cancel}, nmax, seed, WrapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Done || len(partial.Records) == 0 {
		t.Fatalf("interrupted run: info = %+v, %d records", info, len(partial.Records))
	}
	if n := len(sink.ByKind(obs.KindCheckpoint)); n != 0 || hasCheckpoint(t, dir) {
		t.Fatalf("interrupted run wrote a checkpoint (%d events)", n)
	}
}
