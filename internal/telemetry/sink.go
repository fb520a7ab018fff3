package telemetry

import (
	"fmt"
	"strings"
)

// This file defines the Sink contract — the one interface every telemetry
// exporter implements — and OpenSink, the spec-string factory both binaries
// use for their -trace-out flags. Three transports exist behind it:
//
//	out.jsonl / file://out.jsonl   buffered JSONL file (filesink.go)
//	tcp://host:port                length-prefixed JSONL over TCP (socketsink.go)
//	unix:///path.sock              length-prefixed JSONL over a unix socket
//
// Prefixing any spec with "otlp+" (otlp+file://…, otlp+tcp://…,
// otlp+unix://…) switches the record encoding to the OTLP-shaped JSON
// mapping (otlp.go) on the same transport.
//
// Sinks never participate in a run's determinism contract: every emission
// method is fire-and-forget, errors surface once through Err, and the
// socket transport drops rather than blocks when the reader is slow
// (drops counted, mirrored into telemetry_sink_dropped_total when
// SetTelemetry wired a registry).

// Sink receives telemetry records: discrete events, span trees, registry
// snapshots, windowed time-series snapshots, and free-form notes.
// Implementations are safe for concurrent use and nil-receiver safe on
// every emission method.
type Sink interface {
	// Event exports one structured event (signature matches Log.SetSink).
	Event(e Event)
	// Span exports one span tree.
	Span(root *Span)
	// Snapshot exports a full registry snapshot.
	Snapshot(snap Snapshot)
	// Windows exports a windowed time-series snapshot.
	Windows(ws WindowsSnapshot)
	// Note exports a free-form marker (run boundaries, arm labels).
	Note(name string, attrs ...Attr)
	// Records reports how many records were exported so far.
	Records() int64
	// Dropped reports how many records were discarded (bounded queue full,
	// max-bytes cap reached).
	Dropped() int64
	// Err returns the first export error, if any.
	Err() error
	// SetTelemetry mirrors the sink's drop count into reg as
	// telemetry_sink_dropped_total (counted from this call on).
	SetTelemetry(reg *Registry)
	// Close flushes buffered records and releases the transport.
	Close() error
}

// Interface conformance.
var (
	_ Sink = (*FileSink)(nil)
	_ Sink = (*SocketSink)(nil)
)

// SinkDroppedCounter is the registry counter name every sink mirrors its
// drop count into when SetTelemetry wired a registry.
const SinkDroppedCounter = "telemetry_sink_dropped_total"

// AttachLog routes every event l emits into s (l.SetSink(s.Event)). Nil l
// is a no-op.
func AttachLog(l *Log, s Sink) {
	if l == nil || s == nil {
		return
	}
	l.SetSink(s.Event)
}

// OpenSink builds a sink from a -trace-out spec string. Recognized forms:
//
//	path.jsonl            JSONL file (created, truncating)
//	file://path.jsonl     same, explicit scheme
//	tcp://host:port       length-prefixed JSONL over TCP
//	unix:///path.sock     length-prefixed JSONL over a unix socket
//	otlp+<any of above>   OTLP-shaped JSON records on that transport
func OpenSink(spec string) (Sink, error) {
	if spec == "" {
		return nil, fmt.Errorf("telemetry: empty sink spec")
	}
	otlp := false
	if rest, ok := strings.CutPrefix(spec, "otlp+"); ok {
		otlp = true
		spec = rest
		if spec == "" {
			return nil, fmt.Errorf("telemetry: sink spec %q names no transport", "otlp+")
		}
	}
	switch {
	case strings.HasPrefix(spec, "tcp://"):
		return DialSocketSink("tcp", strings.TrimPrefix(spec, "tcp://"), SocketSinkConfig{OTLP: otlp})
	case strings.HasPrefix(spec, "unix://"):
		return DialSocketSink("unix", strings.TrimPrefix(spec, "unix://"), SocketSinkConfig{OTLP: otlp})
	case strings.HasPrefix(spec, "file://"):
		spec = strings.TrimPrefix(spec, "file://")
		fallthrough
	default:
		s, err := NewFileSink(spec)
		if err != nil {
			return nil, err
		}
		if otlp {
			s.otlp = &otlpState{}
		}
		return s, nil
	}
}
