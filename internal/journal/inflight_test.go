package journal

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/space"
)

// TestInFlightMarkerRoundTrip pins the marker's durable format: index,
// config, and problem name all survive a process boundary (Close/Open).
func TestInFlightMarkerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Problem: "bowl", Algorithm: "RS", Seed: 1, NMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkInFlight(0, space.Config{3, 1, 4}, "bowl"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	inf, ok := s2.InFlight()
	if !ok {
		t.Fatal("marker lost across reopen")
	}
	if inf.Index != 0 || inf.Problem != "bowl" {
		t.Fatalf("recovered marker %+v, want index 0 problem bowl", inf)
	}
	if space.Config(inf.Config).Key() != (space.Config{3, 1, 4}).Key() {
		t.Fatalf("recovered config %v", inf.Config)
	}
}

// TestInFlightLegacyMarkerAccepted pins backward compatibility: a
// marker written before the problem field existed (no "problem" key)
// still loads and reports as pending — absence skips the problem check.
func TestInFlightLegacyMarkerAccepted(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, Meta{Problem: "bowl", Algorithm: "RS", Seed: 1, NMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	legacy := []byte(`{"i":0,"config":[2,7]}`)
	if err := os.WriteFile(filepath.Join(dir, InFlightFileName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	inf, ok := s2.InFlight()
	if !ok {
		t.Fatal("legacy marker not recovered")
	}
	if inf.Problem != "" {
		t.Fatalf("legacy marker grew a problem name: %+v", inf)
	}
}

// TestInFlightProblemMismatchAborts resumes a journal whose in-flight
// marker names a different problem than the run: the wrap layer must
// refuse to replay the marker into the wrong search instead of
// silently journaling an entry that belongs to no single run.
func TestInFlightProblemMismatchAborts(t *testing.T) {
	dir := t.TempDir()
	p := newBowl()
	// The crashed run: same search, but its marker claims the pending
	// evaluation was dispatched against a differently-targeted problem
	// (e.g. a remote worker pool configured for another machine).
	first, ok := space.NewSampler(p.Space(), rng.New(9)).Next()
	if !ok {
		t.Fatal("empty space")
	}
	s, err := Create(dir, Meta{Problem: p.Name(), Algorithm: "RS", Seed: 9, NMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkInFlight(0, first, p.Name()+"@machineA"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, _, err = runRS(context.Background(), dir, p, 6, 9, WrapOptions{TrackInFlight: true})
	if err == nil {
		t.Fatal("resume with a foreign in-flight marker succeeded, want abort")
	}
	if !errors.Is(err, search.ErrAborted) {
		t.Fatalf("abort error chain missing ErrAborted: %v", err)
	}
	if !strings.Contains(err.Error(), "belongs to problem") {
		t.Fatalf("error does not explain the mismatch: %v", err)
	}
}
