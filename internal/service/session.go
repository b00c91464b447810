package service

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/evalcache"
	"repro/internal/journal"
	"repro/internal/search"
)

// State is a session's lifecycle stage.
type State string

const (
	// StatePending: accepted, waiting for a runner slot (or queued for
	// resume after a daemon restart).
	StatePending State = "pending"
	// StateRunning: a runner is driving the search.
	StateRunning State = "running"
	// StateDone: the search ran to its natural end; the result is final.
	StateDone State = "done"
	// StateFailed: the run aborted with an error (journal corruption,
	// meta mismatch, every evaluation failed to even start, ...).
	StateFailed State = "failed"
	// StateCancelled: the client DELETEd the session; a durable
	// tombstone keeps it cancelled across restarts.
	StateCancelled State = "cancelled"
	// StateInterrupted: the daemon shut down mid-search. The journal is
	// resumable; the next daemon start re-queues the session.
	StateInterrupted State = "interrupted"
)

// Filenames inside a session directory.
const (
	requestFile   = "request.json"
	journalDirN   = "journal"
	tombstoneFile = "cancelled"
	traceFile     = "trace.jsonl"
)

// session is one tuning session: a request, its on-disk home, and the
// run state. All mutable fields are guarded by mu.
type session struct {
	id    string
	dir   string
	req   Request
	scope string

	mu        sync.Mutex
	state     State
	resumed   bool
	prior     int // journaled evaluations recovered at (re)start
	cp        *evalcache.CachedProblem
	res       *search.Result
	pulls     map[string]int
	errMsg    string
	cancelled bool   // DELETE requested
	stop      func() // cancels the running search; set while running
}

// journalDir returns the session's journal directory.
func (s *session) journalDir() string { return filepath.Join(s.dir, journalDirN) }

// tombstone returns the cancellation marker path.
func (s *session) tombstone() string { return filepath.Join(s.dir, tombstoneFile) }

// Status is the JSON shape of GET /sessions/{id} (and each element of
// GET /sessions).
type Status struct {
	ID      string  `json:"id"`
	State   State   `json:"state"`
	Request Request `json:"request"`
	// Evaluations counts the records the session holds so far: the
	// journaled prefix recovered at start plus everything evaluated (or
	// served from cache) since.
	Evaluations int `json:"evaluations"`
	// CacheHits/CacheMisses are this session's evaluation-cache numbers:
	// a fully warmed resubmission completes with zero misses.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Resumed reports that a restart picked the session up from its
	// journal.
	Resumed bool `json:"resumed,omitempty"`
	// TechniquePulls reports the ensemble's per-technique budget spend.
	TechniquePulls map[string]int `json:"technique_pulls,omitempty"`
	Error          string         `json:"error,omitempty"`
}

// status snapshots the session for the API.
func (s *session) status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID: s.id, State: s.state, Request: s.req,
		Resumed:        s.resumed,
		TechniquePulls: s.pulls, Error: s.errMsg,
	}
	switch {
	case s.res != nil:
		st.Evaluations = len(s.res.Records)
	default:
		st.Evaluations = s.prior
	}
	if s.cp != nil {
		h, m := s.cp.Counts()
		st.CacheHits, st.CacheMisses = h, m
		if s.res == nil {
			st.Evaluations = s.prior + h + m
		}
	}
	return st
}

// Best is the JSON shape of GET /sessions/{id}/best.
type Best struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Config is the winning configuration (space level indices) and
	// Rendered its human-readable parameter assignment.
	Config   []int  `json:"config"`
	Rendered string `json:"rendered"`
	// RunTime is the best measured run time; FoundAfter the 1-based
	// evaluation index that found it.
	RunTime     float64       `json:"run_time"`
	FoundAfter  int           `json:"found_after"`
	Evaluations int           `json:"evaluations"`
	Skipped     int           `json:"skipped,omitempty"`
	Counts      search.Counts `json:"counts"`
}

// RecordJSON is one evaluation record on the wire, following the
// journal's pointer convention for run times (+Inf — a failed
// evaluation — is encoded by omitting the field).
type RecordJSON struct {
	Config  []int    `json:"config"`
	Run     *float64 `json:"run,omitempty"`
	Cost    float64  `json:"cost"`
	Elapsed float64  `json:"elapsed"`
	Status  string   `json:"status"`
	Retries int      `json:"retries,omitempty"`
}

// ResultJSON is the JSON shape of GET /sessions/{id}/result: the full
// evaluation trajectory, byte-comparable across runs (the e2e tests
// diff two of these to prove bit-identity).
type ResultJSON struct {
	ID        string       `json:"id"`
	Algorithm string       `json:"algorithm"`
	Problem   string       `json:"problem"`
	Skipped   int          `json:"skipped,omitempty"`
	Records   []RecordJSON `json:"records"`
}

// resultJSON converts a final Result for the API.
func resultJSON(id string, res *search.Result) ResultJSON {
	out := ResultJSON{
		ID: id, Algorithm: res.Algorithm, Problem: res.Problem,
		Skipped: res.Skipped, Records: make([]RecordJSON, 0, len(res.Records)),
	}
	for _, rec := range res.Records {
		rj := RecordJSON{
			Config: rec.Config, Cost: rec.Cost, Elapsed: rec.Elapsed,
			Status: rec.Status.String(), Retries: rec.Retries,
		}
		if !math.IsInf(rec.RunTime, 0) && !math.IsNaN(rec.RunTime) {
			rt := rec.RunTime
			rj.Run = &rt
		}
		out.Records = append(out.Records, rj)
	}
	return out
}

// loadResult materializes a finished session's Result from its journal
// (used after a restart, when the in-memory Result is gone). Caller
// holds s.mu.
func (s *session) loadResult() (*search.Result, error) {
	if s.res != nil {
		return s.res, nil
	}
	js, err := journal.Open(s.journalDir())
	if err != nil {
		return nil, err
	}
	defer func() { _ = js.Close() }()
	res, err := js.Result()
	if err != nil {
		return nil, err
	}
	s.res = res
	return res, nil
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so a crash never leaves a half-written file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(name)
		return werr
	}
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// markCancelledLocked writes the durable tombstone and flips the state.
// Caller holds s.mu.
func (s *session) markCancelledLocked() error {
	if err := writeFileAtomic(s.tombstone(), []byte("cancelled\n")); err != nil {
		return fmt.Errorf("service: writing tombstone for %s: %w", s.id, err)
	}
	s.state = StateCancelled
	return nil
}
