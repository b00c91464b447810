package journal

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/space"
)

// WrapOptions configures the journaling evaluation layer.
type WrapOptions struct {
	// TrackInFlight durably marks each live evaluation before it is
	// dispatched (see Session.MarkInFlight), so a crash mid-evaluation
	// leaves a marker the resume verifies against its deterministic
	// replay. Meant for runs with a remote worker pool, where an
	// evaluation can be in a worker's hands when the process dies.
	TrackInFlight bool
}

// Recorder is the journaling evaluation layer around a Problem. The
// first len(journal) evaluations are served from the journal (verifying
// the replayed search requests the identical configurations); every
// later evaluation runs for real and is journaled — durably — before
// the search observes its outcome.
type Recorder struct {
	p       search.Problem
	s       *Session
	opts    WrapOptions
	idx     int // next journal entry to serve
	elapsed float64
	err     error
}

// Name implements search.Problem.
func (w *Recorder) Name() string { return w.p.Name() }

// Space implements search.Problem.
func (w *Recorder) Space() *space.Space { return w.p.Space() }

// Evaluate implements search.Problem through search.EvaluateBackground.
func (w *Recorder) Evaluate(c space.Config) (float64, float64) {
	return search.EvaluateBackground(w, c)
}

// Err returns the first fatal journaling error (failed append, failed
// checkpoint, or replay divergence). Once set, every further evaluation
// aborts the search.
func (w *Recorder) Err() error { return w.err }

// abort records err as fatal and returns the outcome that stops the
// search without recording anything.
func (w *Recorder) abort(err error) search.Outcome {
	if w.err == nil {
		w.err = err
	}
	return search.Outcome{RunTime: math.Inf(1), Status: search.StatusFailed, Err: w.err}
}

// EvaluateFull implements search.FullEvaluator: serve the journaled
// prefix, then evaluate and journal.
func (w *Recorder) EvaluateFull(ctx context.Context, c space.Config) search.Outcome {
	if w.err != nil {
		return w.abort(w.err)
	}
	if w.idx < len(w.s.entries) {
		e := w.s.entries[w.idx]
		if space.Config(e.Config).Key() != c.Key() {
			return w.abort(fmt.Errorf(
				"journal: replay diverged at entry %d: journal has %v, search requested %v "+
					"(journal was recorded under different semantics): %w",
				w.idx, e.Config, []int(c), search.ErrAborted))
		}
		w.idx++
		w.elapsed += e.Cost
		rec, err := e.record(w.elapsed)
		if err != nil {
			return w.abort(fmt.Errorf("%v: %w", err, search.ErrAborted))
		}
		return search.Outcome{
			RunTime: rec.RunTime, Cost: rec.Cost,
			Status: rec.Status, Retries: rec.Retries,
		}
	}

	if w.opts.TrackInFlight {
		// A recovered marker at this index is the evaluation the crashed
		// process had dispatched: the deterministic replay must request
		// the identical configuration, or the resume diverged.
		if inf, ok := w.s.InFlight(); ok && inf.Index == w.idx {
			if space.Config(inf.Config).Key() != c.Key() {
				return w.abort(fmt.Errorf(
					"journal: in-flight replay diverged at entry %d: marker has %v, search requested %v "+
						"(journal was recorded under different semantics): %w",
					w.idx, inf.Config, []int(c), search.ErrAborted))
			}
			if inf.Problem != "" && inf.Problem != w.p.Name() {
				return w.abort(fmt.Errorf(
					"journal: in-flight marker at entry %d belongs to problem %q, resume runs %q: %w",
					w.idx, inf.Problem, w.p.Name(), search.ErrAborted))
			}
		}
		if err := w.s.MarkInFlight(w.idx, c, w.p.Name()); err != nil {
			return w.abort(fmt.Errorf("%v: %w", err, search.ErrAborted))
		}
	}

	out := search.EvaluateFull(ctx, w.p, c)
	if out.Interrupted() {
		return out
	}
	rec := search.Record{
		Config: c, RunTime: out.RunTime, Cost: out.Cost,
		Status: out.Status, Retries: out.Retries,
	}
	tr := obs.FromContext(ctx)
	var sw obs.Stopwatch
	if tr.Enabled() {
		sw = obs.StartTimer()
	}
	if err := w.s.Append(rec); err != nil {
		return w.abort(fmt.Errorf("%v: %w", err, search.ErrAborted))
	}
	if tr.Enabled() {
		tr.JournalAppend(w.idx, sw.Elapsed())
	}
	w.idx++
	w.elapsed += out.Cost
	return out
}

// RunInfo describes how a journaled run was (re)started.
type RunInfo struct {
	// Resumed is true when the journal already held entries.
	Resumed bool
	// Prior is the number of journaled entries at start.
	Prior int
	// InFlight is true when the resumed journal carried a live in-flight
	// marker: the prior process died while an evaluation was dispatched.
	InFlight bool
	// Done is true when the search ran to its natural end (budget or
	// space exhausted) rather than being interrupted.
	Done bool
}

// Run executes (or resumes) a journaled search. drive re-runs the search
// algorithm deterministically from its seed over the wrapped problem;
// journaled outcomes are served for the prefix, so the drive reproduces
// the interrupted run bit-exactly and continues it, while the Recorder
// verifies every replayed request against the journal. On a context
// interruption the partial result is returned with info.Done=false; the
// log alone makes the journal resumable.
func Run(ctx context.Context, dir string, meta Meta, p search.Problem, opts WrapOptions,
	drive func(ctx context.Context, p search.Problem) *search.Result) (res *search.Result, info *RunInfo, err error) {

	s, info, err := openOrCreate(dir, meta)
	if err != nil {
		return nil, nil, err
	}
	// A close failure after a clean run still means the journal's final
	// state may not be durable; surface it rather than dropping it.
	defer func() {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("journal: closing session: %w", cerr)
		}
	}()
	if s.Done() {
		res, err := s.Result()
		if err != nil {
			return nil, nil, err
		}
		info.Done = true
		return res, info, nil
	}
	w := &Recorder{p: p, s: s, opts: opts}
	res = drive(ctx, w)
	return finalize(ctx, s, w, res, info)
}

func openOrCreate(dir string, meta Meta) (*Session, *RunInfo, error) {
	if Exists(dir) {
		s, err := Open(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := s.Meta().Check(meta); err != nil {
			// The meta mismatch is the actionable error; the handle was
			// only ever read.
			_ = s.Close()
			return nil, nil, err
		}
		info := &RunInfo{Resumed: true, Prior: s.Len()}
		if _, ok := s.InFlight(); ok {
			info.InFlight = true
		}
		return s, info, nil
	}
	s, err := Create(dir, meta)
	if err != nil {
		return nil, nil, err
	}
	return s, &RunInfo{}, nil
}

// finalize clears the in-flight marker and, when the search ran to its
// natural end, writes the completion marker. An interrupted run writes
// nothing more: its log is already everything a resume needs.
func finalize(ctx context.Context, s *Session, w *Recorder, res *search.Result, info *RunInfo) (*search.Result, *RunInfo, error) {
	if err := w.Err(); err != nil {
		return nil, info, err
	}
	// The run is stopping in an orderly way: nothing is in flight
	// anymore, so the marker must not survive into the next resume.
	if err := s.ClearInFlight(); err != nil {
		return nil, info, err
	}
	info.Done = ctx.Err() == nil
	if !info.Done {
		return res, info, nil
	}
	tr := obs.FromContext(ctx)
	var sw obs.Stopwatch
	if tr.Enabled() {
		sw = obs.StartTimer()
	}
	if err := s.markDone(res.Skipped); err != nil {
		return nil, info, err
	}
	if tr.Enabled() {
		tr.Checkpoint(s.Len(), true, sw.Elapsed())
	}
	return res, info, nil
}
