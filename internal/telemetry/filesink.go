package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// This file implements the streaming file sink: JSON-lines export of
// events, span trees, registry snapshots, and windowed time-series
// snapshots, so a run leaves a trace artifact external tooling can consume
// (dosnbench/dosnd -trace-out). Each line is one self-describing record
// with a "type" discriminator:
//
//	{"type":"event","event":{"seq":1,"name":"breaker.open","attrs":[...]}}
//	{"type":"span","span":{"name":"scenario.read","outcome":"ok",...}}
//	{"type":"snapshot","snapshot":{...}}          (a full Registry snapshot)
//	{"type":"windows","windows":{...}}            (a WindowsSnapshot)
//	{"type":"note","name":"scenario.start","attrs":[...]}
//
// The sink buffers writes and surfaces the first I/O error through Err —
// emission call sites stay error-free (AttachLog runs under the event
// log's lock, so the sink must never block on anything slower than a
// buffered write). An optional max-bytes cap stops writing (and counts
// drops) instead of filling the disk; Close flushes and, for file-backed
// sinks, fsyncs before closing so a crash right after a run cannot lose
// the trace.

// spanJSON is the exported span-tree form.
type spanJSON struct {
	Name      string      `json:"name"`
	Outcome   string      `json:"outcome,omitempty"`
	Tags      []Tag       `json:"tags,omitempty"`
	LatencyMS float64     `json:"latency_ms"`
	Children  []*spanJSON `json:"children,omitempty"`
}

// sinkRecord is one JSON line.
type sinkRecord struct {
	Type     string           `json:"type"`
	Name     string           `json:"name,omitempty"`
	Attrs    []Attr           `json:"attrs,omitempty"`
	Event    *Event           `json:"event,omitempty"`
	Span     *spanJSON        `json:"span,omitempty"`
	Snapshot *Snapshot        `json:"snapshot,omitempty"`
	Windows  *WindowsSnapshot `json:"windows,omitempty"`
}

// FileSink streams telemetry records to a file (or any writer) as JSON
// lines, either in the native record form above or, for a sink opened with
// an "otlp+" spec, in the OTLP-shaped mapping (otlp.go). Safe for
// concurrent use; every method is nil-receiver safe so an optional sink
// threads through as a single pointer.
type FileSink struct {
	mu       sync.Mutex
	file     *os.File // nil for writer-backed sinks
	w        *bufio.Writer
	otlp     *otlpState // non-nil when encoding OTLP-shaped records
	records  int64
	dropped  int64
	written  int64 // bytes accepted so far (max-bytes accounting)
	maxBytes int64 // 0 = unlimited
	err      error

	droppedCtr *Counter
}

// NewFileSink creates (truncating) path and returns a sink writing to it.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: trace sink: %w", err)
	}
	s := newWriterSink(f)
	s.file = f
	return s, nil
}

// NewWriterSink wraps an arbitrary writer (tests, in-memory capture).
func NewWriterSink(w io.Writer) *FileSink { return newWriterSink(w) }

func newWriterSink(w io.Writer) *FileSink {
	return &FileSink{w: bufio.NewWriter(w)}
}

// SetMaxBytes caps the total bytes the sink will accept; once a record
// would push past the cap the sink stops writing and counts every further
// record as dropped (bounded artifacts instead of a full disk). 0 removes
// the cap. Nil-safe.
func (s *FileSink) SetMaxBytes(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.maxBytes = n
	s.mu.Unlock()
}

// SetTelemetry mirrors the sink's drop count into reg as
// telemetry_sink_dropped_total (deltas from this call on). Nil-safe.
func (s *FileSink) SetTelemetry(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	s.mu.Lock()
	s.droppedCtr = reg.Counter(SinkDroppedCounter)
	s.mu.Unlock()
}

// write encodes one record, retaining the first error and enforcing the
// max-bytes cap.
func (s *FileSink) write(rec sinkRecord) {
	if s == nil {
		return
	}
	var b []byte
	var merr error
	if s.otlp == nil { // fixed at construction, so readable unlocked
		b, merr = json.Marshal(rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if s.otlp != nil {
		// The OTLP encoder advances the sink's span-id sequence.
		b, merr = otlpMarshal(rec, s.otlp)
	}
	if merr != nil {
		s.err = merr
		return
	}
	line := int64(len(b) + 1)
	if s.maxBytes > 0 && s.written+line > s.maxBytes {
		s.dropped++
		if s.droppedCtr != nil {
			s.droppedCtr.Inc()
		}
		return
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.err = err
		return
	}
	s.written += line
	s.records++
}

// Event writes one event record. Its signature matches Log.SetSink.
func (s *FileSink) Event(e Event) {
	s.write(sinkRecord{Type: "event", Event: &e})
}

// Span writes one span tree record.
func (s *FileSink) Span(root *Span) {
	if s == nil || root == nil {
		return
	}
	s.write(sinkRecord{Type: "span", Span: spanToJSON(root)})
}

// Snapshot writes a full registry snapshot record.
func (s *FileSink) Snapshot(snap Snapshot) {
	s.write(sinkRecord{Type: "snapshot", Snapshot: &snap})
}

// Windows writes a windowed time-series snapshot record.
func (s *FileSink) Windows(ws WindowsSnapshot) {
	s.write(sinkRecord{Type: "windows", Windows: &ws})
}

// Note writes a free-form marker record (run boundaries, arm labels).
func (s *FileSink) Note(name string, attrs ...Attr) {
	s.write(sinkRecord{Type: "note", Name: name, Attrs: attrs})
}

// AttachLog routes every event l emits to this sink (a nil sink detaches
// nothing — call l.SetSink(nil) to detach).
func (s *FileSink) AttachLog(l *Log) {
	if s == nil || l == nil {
		return
	}
	l.SetSink(s.Event)
}

// Records reports how many records were written so far.
func (s *FileSink) Records() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Dropped reports how many records the max-bytes cap discarded.
func (s *FileSink) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Err returns the first write error, if any. Errors surface here exactly
// once per sink — emission call sites stay error-free by contract.
func (s *FileSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush drains the buffer to the underlying writer.
func (s *FileSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// Close flushes and, for file-backed sinks, fsyncs and closes the file, so
// the trace artifact survives a crash immediately after the run.
func (s *FileSink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.w.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.file != nil {
		if serr := s.file.Sync(); s.err == nil {
			s.err = serr
		}
		if cerr := s.file.Close(); s.err == nil {
			s.err = cerr
		}
		s.file = nil
	}
	return s.err
}

// spanToJSON converts a span tree to its exported form.
func spanToJSON(sp *Span) *spanJSON {
	out := &spanJSON{
		Name:      sp.Name,
		Outcome:   sp.Outcome,
		Tags:      sp.Tags,
		LatencyMS: float64(sp.Latency) / float64(time.Millisecond),
	}
	for _, c := range sp.Children {
		out.Children = append(out.Children, spanToJSON(c))
	}
	return out
}
