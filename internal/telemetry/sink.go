package telemetry

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// This file implements streaming export: one Sink type that encodes
// telemetry records onto a buffered file, and OpenSink, the spec-string
// factory both binaries use for their -trace-out flags:
//
//	out.jsonl / file://out.jsonl   JSON lines, one record a line
//	otlp+<either of the above>     OTLP-shaped records (otlp.go)
//
// The file may be a pipe or a device as well as a regular file, so
// -trace-out /dev/stdout streams the records to whatever reads the output.
//
// Each record is one self-describing JSON line with a "type" discriminator:
//
//	{"type":"event","event":{"seq":1,"name":"breaker.open","attrs":[...]}}
//	{"type":"span","span":{"name":"scenario.read","outcome":"ok",...}}
//	{"type":"snapshot","snapshot":{...}}          (a full Registry snapshot)
//	{"type":"windows","windows":{...}}            (a WindowsSnapshot)
//	{"type":"note","name":"scenario.start","attrs":[...]}
//
// Sinks never take part in a run's determinism contract: every emission
// method is fire-and-forget and costs a buffered write (AttachLog runs
// under the event log's lock). Every record offered is either written
// (Records) or counted (Dropped): after the first error, or after Close.
// The first error is sticky and surfaces through Close; drops are mirrored
// into telemetry_sink_dropped_total only when SetTelemetry wired a
// registry, so deterministic snapshots stay clean by default.

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

// SinkDroppedCounter is the registry counter name a sink mirrors its drop
// count into when SetTelemetry wired a registry.
const SinkDroppedCounter = "telemetry_sink_dropped_total"

// Sink streams telemetry records — events, span trees, registry snapshots,
// windowed snapshots, notes — to a file. Safe for concurrent use; every
// method is nil-receiver safe so an optional sink threads through as a
// single pointer.
type Sink struct {
	mu         sync.Mutex // guards every field below and orders the writes
	w          *bufio.Writer
	file       *os.File   // nil over a plain writer
	otlp       *otlpState // non-nil when encoding OTLP-shaped records
	closed     bool
	err        error
	records    int64
	dropped    int64
	droppedCtr *Counter
}

// OpenSink builds a sink from a -trace-out spec string (forms above). The
// file is created truncating, so a bad path fails here; so does any
// scheme:// other than file://.
func OpenSink(spec string) (*Sink, error) {
	if spec == "" {
		return nil, fmt.Errorf("telemetry: empty sink spec")
	}
	rest, otlp := strings.CutPrefix(spec, "otlp+")
	if rest == "" {
		return nil, fmt.Errorf("telemetry: sink spec %q names no file", spec)
	}
	if scheme, path, ok := strings.Cut(rest, "://"); ok {
		if scheme != "file" {
			return nil, fmt.Errorf("telemetry: sink spec %q: want a path or file://path, either with an optional otlp+ prefix", spec)
		}
		rest = path
	}
	// Write-only, so that a FIFO waits for its reader, and a reader that
	// hangs up fails the writes rather than leaving them to fill the pipe.
	f, err := os.OpenFile(rest, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return nil, fmt.Errorf("telemetry: trace sink: %w", err)
	}
	s := &Sink{w: bufio.NewWriter(f), file: f}
	if otlp {
		s.otlp = &otlpState{}
	}
	return s, nil
}

// AttachLog routes every event l emits into s (l.SetSink(s.Event)). A nil
// log or sink is a no-op; call l.SetSink(nil) to detach.
func AttachLog(l *Log, s *Sink) {
	if l == nil || s == nil {
		return
	}
	l.SetSink(s.Event)
}

// emit encodes one record and writes it, or counts it as dropped.
func (s *Sink) emit(rec sinkRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && !s.closed {
		// The one encode step. It runs under the lock because the OTLP
		// encoder advances the sink's span-id sequence.
		var b []byte
		var err error
		if s.otlp != nil {
			b, err = otlpMarshal(rec, s.otlp)
		} else {
			b, err = json.Marshal(rec)
		}
		if err == nil {
			_, err = s.w.Write(append(b, '\n'))
		}
		if err == nil {
			s.records++
			return
		}
		s.err = err
	}
	s.dropped++
	if s.droppedCtr != nil {
		s.droppedCtr.Inc()
	}
}

// Event exports one event record. Its signature matches Log.SetSink.
func (s *Sink) Event(e Event) { s.emit(sinkRecord{Type: "event", Event: &e}) }

// Span exports one span tree record; a nil root is not an emission.
func (s *Sink) Span(root *Span) {
	if s == nil || root == nil {
		return
	}
	s.emit(sinkRecord{Type: "span", Span: spanToJSON(root)})
}

// Snapshot exports a full registry snapshot record.
func (s *Sink) Snapshot(snap Snapshot) { s.emit(sinkRecord{Type: "snapshot", Snapshot: &snap}) }

// Windows exports a windowed time-series snapshot record.
func (s *Sink) Windows(ws WindowsSnapshot) { s.emit(sinkRecord{Type: "windows", Windows: &ws}) }

// Note exports a free-form marker record (run boundaries, arm labels).
func (s *Sink) Note(name string, attrs ...Attr) {
	s.emit(sinkRecord{Type: "note", Name: name, Attrs: attrs})
}

// Records reports how many records were written so far.
func (s *Sink) Records() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Dropped reports how many offered records were not written (after the
// first error, after Close).
func (s *Sink) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// SetTelemetry mirrors the drop count into reg as
// telemetry_sink_dropped_total (deltas from this call on). Off by default
// so a trace sink can never perturb a deterministic run's snapshot.
func (s *Sink) SetTelemetry(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	s.mu.Lock()
	s.droppedCtr = reg.Counter(SinkDroppedCounter)
	s.mu.Unlock()
}

// Close flushes the buffer and closes the file, fsyncing it first when it
// is a regular file so the artifact survives a crash right after the run
// (a pipe or a device has nothing to sync). It returns the sink's first
// error, on every call; records arriving after Close are dropped and
// counted.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	err := s.w.Flush()
	if s.file != nil {
		fi, serr := s.file.Stat()
		if serr == nil && fi.Mode().IsRegular() {
			serr = s.file.Sync()
		}
		err = cmp.Or(err, serr, s.file.Close())
	}
	s.err = cmp.Or(s.err, err)
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
