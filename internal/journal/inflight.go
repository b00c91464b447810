package journal

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/space"
)

// In-flight work tracking. The evaluation broker (internal/broker) can
// be serving a task when the process dies: the journal has no entry for
// it, yet real work was dispatched. MarkInFlight records the work item
// durably before it is dispatched, so a SIGKILL'd run's resume knows
// exactly which evaluation was cut mid-air. Replay then re-runs that
// evaluation deterministically — the marker is verified against the
// configuration the resumed search actually requests at that index, so
// a diverging resume is caught instead of silently journaling an entry
// that belongs to no single run.

// InFlightFileName is the durable marker for a dispatched-but-not-yet-
// journaled evaluation.
const InFlightFileName = "inflight.json"

// InFlight describes one dispatched work item awaiting its journal
// entry.
type InFlight struct {
	// Index is the journal index the item will occupy when it completes
	// (always the current entry count at dispatch time).
	Index int `json:"i"`
	// Config is the candidate being evaluated.
	Config []int `json:"config"`
	// Problem names the problem the item was dispatched against, so a
	// resume under a different problem (or a remote worker pool serving
	// a different target) is refused instead of replaying the marker
	// into the wrong search. Empty in markers written before the field
	// existed; absence skips the check.
	Problem string `json:"problem,omitempty"`
}

// MarkInFlight durably records that the evaluation destined for journal
// index idx has been dispatched against the named problem. The marker
// is overwritten by the next dispatch and removed by ClearInFlight.
func (s *Session) MarkInFlight(idx int, c space.Config, problem string) error {
	inf := InFlight{Index: idx, Config: []int(c), Problem: problem}
	data, err := json.Marshal(inf)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(filepath.Join(s.dir, InFlightFileName), durable.Bytes(data)); err != nil {
		return err
	}
	inf.Config = append([]int(nil), c...)
	s.inflight = &inf
	return nil
}

// ClearInFlight removes the in-flight marker (absence is not an error).
func (s *Session) ClearInFlight() error {
	s.inflight = nil
	err := os.Remove(filepath.Join(s.dir, InFlightFileName))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// InFlight returns the recovered (or last written) in-flight work item,
// if one is pending. A marker whose index is already covered by a
// journaled entry is stale — the item completed and its append won the
// race before the crash — and is reported as absent.
func (s *Session) InFlight() (InFlight, bool) {
	if s.inflight == nil || s.inflight.Index < len(s.entries) {
		return InFlight{}, false
	}
	return *s.inflight, true
}

// loadInFlight reads the marker during Open; corruption or absence both
// mean "nothing pending" (the marker is advisory — the log is the
// source of truth).
func (s *Session) loadInFlight() *InFlight {
	data, err := os.ReadFile(filepath.Join(s.dir, InFlightFileName))
	if err != nil {
		return nil
	}
	var inf InFlight
	if err := json.Unmarshal(data, &inf); err != nil {
		return nil
	}
	if inf.Index < 0 {
		return nil
	}
	return &inf
}
