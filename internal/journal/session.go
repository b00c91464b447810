package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/search"
	"repro/internal/space"
)

// Meta pins a journal to one run's semantics. A resume under a different
// problem, algorithm, seed, or budget would silently produce records
// that belong to no single run, so Open callers must verify it with
// Check before continuing a search.
type Meta struct {
	Problem   string `json:"problem"`
	Algorithm string `json:"algorithm"`
	Seed      uint64 `json:"seed"`
	NMax      int    `json:"nmax"`
	// Extra holds caller-defined settings that must also match on resume
	// (machine, compiler, fault rate, ...). Keys are compared exactly.
	Extra map[string]string `json:"extra,omitempty"`
}

// Check reports whether other describes the same run. Failures wrap
// ErrMetaMismatch.
func (m Meta) Check(other Meta) error {
	if m.Problem != other.Problem || m.Algorithm != other.Algorithm ||
		m.Seed != other.Seed || m.NMax != other.NMax {
		return fmt.Errorf("%w: journal is %s/%s seed=%d nmax=%d, run is %s/%s seed=%d nmax=%d",
			ErrMetaMismatch,
			m.Problem, m.Algorithm, m.Seed, m.NMax,
			other.Problem, other.Algorithm, other.Seed, other.NMax)
	}
	if len(m.Extra) != len(other.Extra) {
		return fmt.Errorf("%w: extra settings differ", ErrMetaMismatch)
	}
	for k, v := range m.Extra {
		if ov, ok := other.Extra[k]; !ok || ov != v {
			return fmt.Errorf("%w: %s is %q in journal, %q in run", ErrMetaMismatch, k, v, ov)
		}
	}
	return nil
}

// Entry is one journaled evaluation. RunTime is omitted for failed
// evaluations (JSON cannot encode the +Inf they carry); Elapsed is not
// stored at all — it is the running sum of Cost in entry order, exactly
// how the search runner computes it, so recomputing it on load is
// bit-exact.
type Entry struct {
	Index   int      `json:"i"`
	Config  []int    `json:"config"`
	RunTime *float64 `json:"run,omitempty"`
	Cost    float64  `json:"cost"`
	Status  string   `json:"status"`
	Retries int      `json:"retries,omitempty"`
}

// entryFromRecord converts a completed search record for journaling.
func entryFromRecord(idx int, rec search.Record) Entry {
	e := Entry{
		Index:   idx,
		Config:  []int(rec.Config),
		Cost:    rec.Cost,
		Status:  rec.Status.String(),
		Retries: rec.Retries,
	}
	if !math.IsInf(rec.RunTime, 0) && !math.IsNaN(rec.RunTime) {
		rt := rec.RunTime
		e.RunTime = &rt
	}
	return e
}

// record converts the entry back, reconstructing +Inf for failed
// evaluations and the given cumulative elapsed clock.
func (e Entry) record(elapsed float64) (search.Record, error) {
	st, err := search.ParseStatus(e.Status)
	if err != nil {
		return search.Record{}, err
	}
	rt := math.Inf(1)
	if e.RunTime != nil {
		rt = *e.RunTime
	}
	return search.Record{
		Config:  space.Config(e.Config),
		RunTime: rt,
		Cost:    e.Cost,
		Elapsed: elapsed,
		Status:  st,
		Retries: e.Retries,
	}, nil
}

// checkpoint is the completion marker, written once when a run ends
// naturally. Cursor is the number of journaled entries the finished run
// holds. Because the log is fsync'd before the marker is written, Cursor
// can never legitimately exceed the number of durable entries; a
// checkpoint that does is ignored. Older journals may also hold a
// done=false checkpoint, with fields this type does not read; it marks
// nothing and is ignored too.
type checkpoint struct {
	Cursor int  `json:"cursor"`
	Done   bool `json:"done"`
	// Skipped preserves the Result's skipped-candidate count (pruning
	// searches), which a replay-free load could not otherwise
	// reconstruct.
	Skipped int `json:"skipped,omitempty"`
}

// Session is an open journal directory.
type Session struct {
	dir      string
	log      *logFile
	meta     Meta
	entries  []Entry
	cp       *checkpoint
	inflight *InFlight
}

// The files of a journal directory, exported so tooling (the crash
// harness, cmd inspection) can address them without duplicating names.
const (
	MetaFileName       = "meta.json"
	LogFileName        = "journal.log"
	CheckpointFileName = "checkpoint.json"
)

// Exists reports whether dir already holds a journal (its meta file).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, MetaFileName))
	return err == nil
}

// Create initializes a new journal in dir (created if missing). It fails
// if dir already holds one.
func Create(dir string, meta Meta) (*Session, error) {
	if Exists(dir) {
		return nil, fmt.Errorf("journal: %s already holds a journal (use Open to resume)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(filepath.Join(dir, MetaFileName), data); err != nil {
		return nil, err
	}
	log, payloads, err := openLog(filepath.Join(dir, LogFileName))
	if err != nil {
		return nil, err
	}
	if len(payloads) > 0 {
		_ = log.Close()
		return nil, fmt.Errorf("journal: %s has log entries but no meta; refusing to adopt them", dir)
	}
	return &Session{dir: dir, log: log, meta: meta}, nil
}

// ReadMeta loads just the pinned run description of the journal in dir,
// without recovering the log. Tools use it to adopt an interrupted run's
// settings before resuming.
func ReadMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		return Meta{}, fmt.Errorf("journal: %s has no journal: %w", dir, err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return Meta{}, fmt.Errorf("journal: corrupt meta in %s: %w", dir, err)
	}
	return meta, nil
}

// Open recovers an existing journal: reads the meta, scans the log
// (dropping a torn tail), and loads the checkpoint if it is present and
// consistent with the log.
func Open(dir string) (*Session, error) {
	meta, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	log, payloads, err := openLog(filepath.Join(dir, LogFileName))
	if err != nil {
		return nil, err
	}
	s := &Session{dir: dir, log: log, meta: meta}
	for i, p := range payloads {
		var e Entry
		if err := json.Unmarshal(p, &e); err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("journal: corrupt entry %d in %s: %w", i, dir, err)
		}
		if e.Index != i {
			_ = log.Close()
			return nil, fmt.Errorf("journal: entry %d in %s carries index %d", i, dir, e.Index)
		}
		s.entries = append(s.entries, e)
	}
	s.cp = s.loadCheckpoint()
	s.inflight = s.loadInFlight()
	return s, nil
}

// loadCheckpoint reads the completion marker, returning nil when it is
// absent, unreadable, not a completion marker (a done=false checkpoint
// left by older journals), or inconsistent with the recovered log
// (cursor beyond the durable entries — possible only through
// corruption, since entries are fsync'd before the marker that covers
// them).
func (s *Session) loadCheckpoint() *checkpoint {
	data, err := os.ReadFile(filepath.Join(s.dir, CheckpointFileName))
	if err != nil {
		return nil
	}
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil
	}
	if !cp.Done || cp.Cursor < 0 || cp.Cursor > len(s.entries) {
		return nil
	}
	return &cp
}

// Meta returns the journal's pinned run description.
func (s *Session) Meta() Meta { return s.meta }

// Len returns the number of recovered entries.
func (s *Session) Len() int { return len(s.entries) }

// Done reports whether the journal's run completed (a completion marker
// covering every entry).
func (s *Session) Done() bool {
	return s.cp != nil && s.cp.Cursor == len(s.entries)
}

// Records converts the recovered entries back into search records, with
// the elapsed clock recomputed as the running cost sum.
func (s *Session) Records() ([]search.Record, error) {
	recs := make([]search.Record, 0, len(s.entries))
	elapsed := 0.0
	for i, e := range s.entries {
		elapsed += e.Cost
		rec, err := e.record(elapsed)
		if err != nil {
			return nil, fmt.Errorf("journal: entry %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// Result assembles the Result the journal holds without re-running
// anything: its records under the meta's identity, with the skipped
// count of a completed run.
func (s *Session) Result() (*search.Result, error) {
	recs, err := s.Records()
	if err != nil {
		return nil, err
	}
	res := &search.Result{Algorithm: s.meta.Algorithm, Problem: s.meta.Problem, Records: recs}
	if s.cp != nil {
		res.Skipped = s.cp.Skipped
	}
	return res, nil
}

// Append journals one completed evaluation record. It returns only after
// the frame is on disk.
func (s *Session) Append(rec search.Record) error {
	e := entryFromRecord(len(s.entries), rec)
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := s.log.Append(payload); err != nil {
		return err
	}
	s.entries = append(s.entries, e)
	return nil
}

// markDone atomically writes the completion marker covering every
// journaled entry, with the finished Result's skipped count.
func (s *Session) markDone(skipped int) error {
	cp := checkpoint{Cursor: len(s.entries), Done: true, Skipped: skipped}
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, CheckpointFileName), data); err != nil {
		return err
	}
	s.cp = &cp
	return nil
}

// Close releases the log file handle. The journal stays resumable.
func (s *Session) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// ErrMetaMismatch tags resume-time identity failures so callers can
// distinguish "wrong journal" from I/O errors.
var ErrMetaMismatch = errors.New("journal: meta mismatch")
