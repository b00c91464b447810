// Package remote serves evaluations to worker processes over a
// net.Conn, surviving the failure modes real networks add — dead
// workers, partitions, duplicated and reordered frames — without
// changing a single evaluation result.
//
//   - One dispatcher: Pool.Evaluate (or a Problem wrapped with
//     Pool.Problem) runs on the submitting goroutine and dispatches its
//     own task. It leases the task to the least-loaded live session and
//     waits; a lost lease re-dispatches after a capped backoff while the
//     retry budget lasts; a straggler gets one hedged copy after
//     HedgeAfter; and once the budget is spent, or the pool is closed,
//     the submitter evaluates inline and marks the outcome Degraded, so
//     the search always terminates with a full result.
//   - Wire format: length-prefixed JSON frames (4-byte big-endian
//     length, then one JSON object), zero dependencies. An in-memory
//     loopback (net.Pipe) serves deterministic tests; unix and tcp
//     sockets serve real worker processes (cmd/brokerd).
//   - Failure detection: workers send periodic heartbeats; the pool's
//     monitor counts silent ticks per session and declares a worker
//     dead after MaxMissedBeats consecutive misses. The detector counts
//     monitor ticks, never measures wall time, so with an injected tick
//     source its transitions are deterministic.
//   - Leases: every dispatched copy of a task holds its own lease,
//     keyed by (seq, attempt) and measured in monitor ticks. A dead or
//     silent worker's leases expire and wake the submitter to
//     re-dispatch; the task's claim guard settles each submission
//     exactly once no matter how many copies eventually answer, and
//     late or duplicated results are charged to telemetry as
//     dup-results (a hedge's losing copy also as hedge-wasted), never to
//     the search.
//   - Exactly-once evaluation: the worker-side EvalGuard collapses
//     duplicate deliveries of the same task sequence into one
//     evaluation and replays the cached outcome, so retransmits and
//     duplicate-delivery storms run a problem once per task.
//   - Reconnect: Worker.Run redials a lost pool connection with capped
//     exponential backoff.
//
// The headline invariant: with every worker session sharing one
// problem instance and one EvalGuard (the loopback topology), remote ==
// inline bit-identical Result under active network faults and hedging
// (TestRemoteMatchesInline). Network faults are injected at
// deterministic (conn, frame) points and only move or suppress frames —
// they never alter a payload — so they can move an evaluation between
// workers, never change what it returns. Separate worker processes
// (cmd/brokerd) hold their own problem instances, so they serve bare
// problems only, which are pure in (name, config); a driver's stateful
// fault and resilience layers wrap the pool driver-side — see
// DESIGN.md §8.
//
// Wall-clock use (hedge and backoff timers, the default monitor tick,
// the handshake and remaining-deadline bounds) is confined to
// scheduling decisions whose observable effect is telemetry — the same
// contract KindWorkerTask documents for the pool engine.
package remote

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
)

// MsgType discriminates wire frames.
type MsgType string

const (
	// MsgHello opens a session: worker → pool, carrying the worker label.
	MsgHello MsgType = "hello"
	// MsgTask dispatches one evaluation: pool → worker.
	MsgTask MsgType = "task"
	// MsgResult answers a task: worker → pool.
	MsgResult MsgType = "result"
	// MsgBeat is a worker heartbeat.
	MsgBeat MsgType = "beat"
	// MsgCancel tells the worker to abandon a task (submitter gone).
	MsgCancel MsgType = "cancel"
	// MsgBye closes a session gracefully (either direction).
	MsgBye MsgType = "bye"
)

// Frame is one wire message. Only the fields for its Type are set.
type Frame struct {
	Type MsgType `json:"type"`
	// Label names the worker (hello).
	Label string `json:"label,omitempty"`
	// Seq addresses a task (cancel).
	Seq int `json:"seq,omitempty"`
	// Task is the dispatch payload (task).
	Task *TaskPayload `json:"task,omitempty"`
	// Result is the answer payload (result).
	Result *ResultPayload `json:"result,omitempty"`
}

// TaskPayload ships one evaluation to a worker.
type TaskPayload struct {
	// Seq is the pool-wide task sequence number; results, duplicates,
	// and cancels are correlated by it.
	Seq int `json:"seq"`
	// Problem names the problem; the worker resolves it to its local
	// instance of the same problem.
	Problem string `json:"problem"`
	// Config is the candidate's level vector.
	Config []int `json:"config"`
	// Attempt is the task's dispatch ordinal (1-based); with Seq it
	// names the lease the worker's result settles.
	Attempt int `json:"attempt"`
	// RemainingNS propagates the submission context's deadline as a
	// remaining duration — never an absolute time, so clock skew between
	// broker and worker cannot distort it. 0 means no deadline.
	RemainingNS int64 `json:"remaining_ns,omitempty"`
	// Trace is the submission's TraceID. It is the only trace state on
	// the wire: span ids are pure functions of (Seq, Attempt, stage), so
	// the worker re-derives them locally and its spans join the
	// coordinator's causal chain without further coordination. Empty when
	// the run is untraced.
	Trace string `json:"trace,omitempty"`
}

// ResultPayload ships one outcome back. Float fields use obs.JSONFloat
// because failed evaluations legitimately carry +Inf run times.
type ResultPayload struct {
	Seq      int           `json:"seq"`
	RunTime  obs.JSONFloat `json:"run_time"`
	Cost     obs.JSONFloat `json:"cost"`
	Status   uint8         `json:"status"`
	Retries  int           `json:"retries"`
	Degraded bool          `json:"degraded,omitempty"`
	Err      string        `json:"err,omitempty"`
	// Attempt echoes the dispatch ordinal the task arrived with. With Seq
	// it names the lease the result settles, so each hedged or
	// re-dispatched copy answers for its own lease and the result span
	// lands on the attempt that actually produced it.
	Attempt int `json:"attempt,omitempty"`
	// Interrupted marks an evaluation the worker could not complete
	// (its context was cancelled mid-flight, or it could not resolve the
	// problem). Interrupted results never settle a task — the pool
	// releases the lease and the submitter re-dispatches.
	Interrupted bool `json:"interrupted,omitempty"`
}

// maxFrame bounds a frame's encoded size: a config is a few hundred
// ints at most, so anything bigger is a corrupt or hostile length
// prefix and the connection is torn down instead of allocating it.
const maxFrame = 1 << 20

// errFrameTooBig is returned for a length prefix exceeding maxFrame.
var errFrameTooBig = errors.New("remote: frame exceeds size limit")

// frameConn frames JSON messages over a net.Conn. Reads are single-
// reader (the session's read loop); writes are serialized by a mutex so
// the heartbeat goroutine and the result writer never interleave
// frames. An optional fault plan (see NetFaults) is applied on the send
// side at deterministic (conn, frame) points.
type frameConn struct {
	conn net.Conn
	id   string

	wmu    sync.Mutex
	sent   int    // frames offered to the send path (fault-roll key)
	held   []byte // a frame held back by a reorder fault
	faults NetFaults
}

// newFrameConn wraps conn. id keys fault rolls; faults may be nil.
func newFrameConn(conn net.Conn, id string, faults NetFaults) *frameConn {
	return &frameConn{conn: conn, id: id, faults: faults}
}

// encodeFrame renders f with its length prefix.
func encodeFrame(f Frame) ([]byte, error) {
	body, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	if len(body) > maxFrame {
		return nil, errFrameTooBig
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	return buf, nil
}

// write sends f, applying the fault plan for protocol frames (task,
// result, beat, cancel). Handshake frames (hello, bye) are exempt:
// they delimit the session the injector reasons about. A fault never
// surfaces as a write error — a dropped frame "succeeds", exactly as a
// lossy network would report it.
func (fc *frameConn) write(f Frame) error {
	buf, err := encodeFrame(f)
	if err != nil {
		return err
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()

	var plan Action
	if fc.faults != nil && faultable(f.Type) {
		plan = fc.faults.Plan(fc.id, fc.sent)
	}
	fc.sent++

	if plan.Delay > 0 {
		time.Sleep(plan.Delay)
	}
	if plan.Drop {
		return nil
	}
	if plan.Hold {
		// Reorder: hold this frame; the next write flushes it afterwards,
		// swapping the pair on the wire.
		if fc.held != nil {
			// Only one frame is held at a time; a second hold sends the
			// first to keep the window bounded.
			if err := fc.writeRaw(fc.held); err != nil {
				return err
			}
		}
		fc.held = buf
		return nil
	}
	if err := fc.writeRaw(buf); err != nil {
		return err
	}
	if plan.Duplicate {
		if err := fc.writeRaw(buf); err != nil {
			return err
		}
	}
	if fc.held != nil {
		held := fc.held
		fc.held = nil
		return fc.writeRaw(held)
	}
	return nil
}

// writeRaw puts one encoded frame on the wire. Callers hold wmu.
func (fc *frameConn) writeRaw(buf []byte) error {
	_, err := fc.conn.Write(buf)
	return err
}

// read blocks for the next frame.
func (fc *frameConn) read() (Frame, error) { return readFrame(fc.conn) }

// readFrame decodes one frame, refusing an oversize length prefix
// before it allocates the body.
func readFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return Frame{}, errFrameTooBig
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	var f Frame
	if err := json.Unmarshal(body, &f); err != nil {
		return Frame{}, fmt.Errorf("remote: bad frame: %w", err)
	}
	return f, nil
}

// close flushes a held reorder frame and closes the connection.
func (fc *frameConn) close() error {
	fc.wmu.Lock()
	if fc.held != nil {
		// Best effort: the peer may already be gone, and close must
		// still run.
		_ = fc.writeRaw(fc.held)
		fc.held = nil
	}
	fc.wmu.Unlock()
	return fc.conn.Close()
}

// faultable reports whether the injector applies to this frame type.
func faultable(t MsgType) bool {
	switch t {
	case MsgTask, MsgResult, MsgBeat, MsgCancel:
		return true
	}
	return false
}

// outcomeToWire converts a search.Outcome for the wire.
func outcomeToWire(seq int, out search.Outcome) *ResultPayload {
	r := &ResultPayload{
		Seq:         seq,
		RunTime:     obs.JSONFloat(out.RunTime),
		Cost:        obs.JSONFloat(out.Cost),
		Status:      uint8(out.Status),
		Retries:     out.Retries,
		Degraded:    out.Degraded,
		Interrupted: out.Interrupted(),
	}
	if out.Err != nil {
		r.Err = out.Err.Error()
	}
	return r
}

// outcomeFromWire reconstructs the outcome. Err becomes an opaque
// string error: search Records never carry Err, so the reconstruction
// is lossless for everything bit-identity compares.
func outcomeFromWire(r *ResultPayload) search.Outcome {
	out := search.Outcome{
		RunTime:  float64(r.RunTime),
		Cost:     float64(r.Cost),
		Status:   search.Status(r.Status),
		Retries:  r.Retries,
		Degraded: r.Degraded,
	}
	if r.Err != "" {
		out.Err = errors.New(r.Err)
	}
	return out
}
