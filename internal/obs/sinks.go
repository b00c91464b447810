package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"sync"
)

// NopSink discards every event. obs.New collapses it to the nil tracer,
// so a tracer "over" a NopSink costs exactly as much as no tracer.
type NopSink struct{}

// Emit implements Sink.
func (NopSink) Emit(Event) {}

// MemorySink buffers events in order, for tests and in-process analysis.
// It is safe for concurrent use.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the buffered events.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// ByKind returns the buffered events of one kind, in order.
func (m *MemorySink) ByKind(k Kind) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, e := range m.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of buffered events.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Reset drops the buffered events.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	m.events = nil
	m.mu.Unlock()
}

// JSONLSink writes one JSON object per event, newline-delimited — the
// on-disk trace format cmd/tracestat reads. Writes are buffered; call
// Close (or Flush) before handing the file to a reader.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps w. If w is also an io.Closer, Close closes it after
// flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink. The first write error is latched and reported by
// Close; later events are dropped (telemetry must never abort a search).
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Flush forces buffered events to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close flushes and closes the underlying writer, returning the first
// error encountered over the sink's lifetime.
func (s *JSONLSink) Close() error {
	flushErr := s.Flush()
	if s.c != nil {
		if err := s.c.Close(); flushErr == nil {
			flushErr = err
		}
	}
	return flushErr
}

// ReadTrace decodes a JSONL trace stream back into events, failing on
// the first malformed line. Use ReadTraceLenient for files that may
// have been torn mid-write (crashed process, truncated artifact).
func ReadTrace(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}

// ReadTraceLenient decodes a JSONL trace line by line, skipping lines
// that fail to parse (a torn tail from a crashed writer, a corrupted
// artifact) instead of aborting. It returns the events that did parse
// and the number of lines skipped.
func ReadTraceLenient(r io.Reader) (events []Event, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if json.Unmarshal(line, &e) != nil {
			skipped++
			continue
		}
		events = append(events, e)
	}
	return events, skipped, sc.Err()
}

// multiSink fans events out to several sinks in order.
type multiSink []Sink

// Emit implements Sink.
func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi combines sinks, dropping nils and no-ops. It returns nil when
// nothing remains (so New(Multi()) is the disabled tracer) and the sink
// itself when only one remains.
func Multi(sinks ...Sink) Sink {
	var kept []Sink
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if _, nop := s.(NopSink); nop {
			continue
		}
		kept = append(kept, s)
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiSink(kept)
}

// Fanin keeps the telemetry of items run concurrently identical to a
// serial loop's: each item runs under its own buffering tracer, and
// Replay emits the buffers into the parent sink in item order, so the
// parent sees the exact event sequence the serial loop would have
// produced and metrics fold to the same counters and gauges whatever
// the schedule. The nil *Fanin, which NewFanin returns when ctx carries
// no enabled tracer, is valid: Context returns ctx unchanged and Replay
// does nothing, so untraced runs pay nothing.
type Fanin struct {
	parent Sink
	bufs   []*MemorySink
}

// NewFanin returns the fan-in of n items run under ctx's tracer, or nil
// when that tracer is disabled.
func NewFanin(ctx context.Context, n int) *Fanin {
	parent := FromContext(ctx)
	if !parent.Enabled() {
		return nil
	}
	f := &Fanin{parent: parent.Sink(), bufs: make([]*MemorySink, n)}
	for i := range f.bufs {
		f.bufs[i] = &MemorySink{}
	}
	return f
}

// Context returns the context item i runs under: ctx with its tracer
// replaced by one over item i's buffer.
func (f *Fanin) Context(ctx context.Context, i int) context.Context {
	if f == nil {
		return ctx
	}
	return WithTracer(ctx, New(f.bufs[i]))
}

// Replay emits every item's buffered events into the parent sink, item
// by item in index order. Call it once, after the last item finished.
func (f *Fanin) Replay() {
	if f == nil {
		return
	}
	for _, buf := range f.bufs {
		for _, e := range buf.Events() {
			f.parent.Emit(e)
		}
	}
}
