package telemetry

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// This file implements streaming export: one Sink type that encodes
// telemetry records and hands them to one of two transports, and OpenSink,
// the spec-string factory both binaries use for their -trace-out flags:
//
//	out.jsonl / file://out.jsonl   buffered JSON-lines file
//	tcp://host:port                length-prefixed JSON lines over TCP
//	unix:///path.sock              length-prefixed JSON lines over a unix socket
//	otlp+<any of the above>        OTLP-shaped records (otlp.go), same transport
//
// Each record is one self-describing JSON line with a "type" discriminator:
//
//	{"type":"event","event":{"seq":1,"name":"breaker.open","attrs":[...]}}
//	{"type":"span","span":{"name":"scenario.read","outcome":"ok",...}}
//	{"type":"snapshot","snapshot":{...}}          (a full Registry snapshot)
//	{"type":"windows","windows":{...}}            (a WindowsSnapshot)
//	{"type":"note","name":"scenario.start","attrs":[...]}
//
// On a connection each line is framed by a 4-byte big-endian payload
// length (the payload includes the trailing '\n').
//
// Sinks never take part in a run's determinism contract: every emission
// method is fire-and-forget and must not block on anything slower than a
// buffered write (AttachLog runs under the event log's lock). Accounting is
// one rule for both transports: every record offered is either written
// (Records) or counted (Dropped) — queue full, after the first error, after
// Close began. The first error is sticky and surfaces through Err and Close;
// drops are mirrored into telemetry_sink_dropped_total only when SetTelemetry
// wired a registry, so deterministic snapshots stay clean by default.

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

// defaultQueueLen bounds a connection sink's in-flight records: several
// whole scenario traces (the largest committed one is under 200 records),
// so a reader that keeps up at all never causes a drop.
const defaultQueueLen = 1024

// errRefused marks a record the sink or its transport declined (queue
// full, sink failed or closing): counted as dropped, never surfaced.
var errRefused = errors.New("telemetry: sink refused record")

// transport carries encoded records (JSON ending in '\n') to their
// destination. The sink calls send under its lock and never after close.
type transport interface {
	// send takes one record without blocking on anything slower than a
	// buffered write. queued means the outcome arrives later through the
	// settle callback the transport was built with; otherwise err is the
	// outcome (nil written, errRefused dropped, anything else an I/O error).
	send(b []byte) (queued bool, err error)
	// close delivers what send accepted, releases the destination and
	// returns the first error of doing so. Called once, without the lock.
	close() error
}

// Sink streams telemetry records — events, span trees, registry snapshots,
// windowed snapshots, notes — to a file or a connection. Safe for
// concurrent use; every method is nil-receiver safe so an optional sink
// threads through as a single pointer.
type Sink struct {
	mu         sync.Mutex // guards every field below and orders encode → send
	t          transport
	otlp       *otlpState    // non-nil when encoding OTLP-shaped records
	closed     chan struct{} // non-nil once Close began, closed when it ended
	err        error
	records    int64
	dropped    int64
	droppedCtr *Counter
}

// NewConnSink returns a sink streaming framed JSON lines over an
// established connection (tests use net.Pipe). queueLen bounds the records
// in flight; below 1 selects the default.
func NewConnSink(conn net.Conn, queueLen int) *Sink {
	if queueLen < 1 {
		queueLen = defaultQueueLen
	}
	s := &Sink{}
	c := &connTransport{conn: conn, queue: make(chan []byte, queueLen), done: make(chan struct{}), settle: s.settle}
	s.t = c
	go c.writeLoop()
	return s
}

// OpenSink builds a sink from a -trace-out spec string (forms above). A
// file is created truncating; a connection is dialled now, so an
// unreachable endpoint fails here.
func OpenSink(spec string) (*Sink, error) {
	if spec == "" {
		return nil, fmt.Errorf("telemetry: empty sink spec")
	}
	rest, otlp := strings.CutPrefix(spec, "otlp+")
	if rest == "" {
		return nil, fmt.Errorf("telemetry: sink spec %q names no transport", spec)
	}
	var s *Sink
	if network, addr, ok := strings.Cut(rest, "://"); ok && (network == "tcp" || network == "unix") {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, fmt.Errorf("telemetry: socket sink: %w", err)
		}
		s = NewConnSink(conn, 0)
	} else {
		f, err := os.Create(strings.TrimPrefix(rest, "file://"))
		if err != nil {
			return nil, fmt.Errorf("telemetry: trace sink: %w", err)
		}
		s = &Sink{t: &fileTransport{w: bufio.NewWriter(f), file: f}}
	}
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

// emit encodes one record and offers it to the transport.
func (s *Sink) emit(rec sinkRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed != nil {
		s.account(errRefused)
		return
	}
	// The one encode step. It runs under the lock because the OTLP encoder
	// advances the sink's span-id sequence.
	var b []byte
	var err error
	if s.otlp != nil {
		b, err = otlpMarshal(rec, s.otlp)
	} else {
		b, err = json.Marshal(rec)
	}
	queued := false
	if err == nil {
		queued, err = s.t.send(append(b, '\n'))
	}
	if !queued {
		s.account(err)
	}
}

// account books the outcome of one offered record with the lock held:
// written, or dropped — retaining err if it is the first real error.
func (s *Sink) account(err error) {
	if err == nil {
		s.records++
		return
	}
	if err != errRefused && s.err == nil {
		s.err = err
	}
	s.dropped++
	if s.droppedCtr != nil {
		s.droppedCtr.Inc()
	}
}

// settle is account for a transport that resolves records off the
// emitting goroutine.
func (s *Sink) settle(err error) {
	s.mu.Lock()
	s.account(err)
	s.mu.Unlock()
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

// Dropped reports how many offered records were not written (queue full,
// after the first error, after Close began).
func (s *Sink) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Err returns the first export error, if any. Errors surface here and from
// Close — emission call sites stay error-free by contract.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
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

// Close delivers what was accepted — a file is flushed, fsynced and closed
// so the artifact survives a crash right after the run; a connection's
// queue is drained, then it is closed — and returns the sink's first
// error. Records arriving once Close began are dropped and counted; a
// second Close waits for the first.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if done := s.closed; done != nil {
		s.mu.Unlock()
		<-done
		return s.Err()
	}
	s.closed = make(chan struct{})
	s.mu.Unlock()
	// No send can follow (emit refuses once closed is set), and the lock is
	// free so a draining writer goroutine can settle what it still holds.
	cerr := s.t.close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = cerr
	}
	close(s.closed)
	return s.err
}

// fileTransport is the lossless, synchronous transport: a buffered writer,
// over a file when OpenSink created one.
type fileTransport struct {
	w    *bufio.Writer
	file *os.File // nil over a plain writer
}

func (f *fileTransport) send(b []byte) (bool, error) {
	_, err := f.w.Write(b)
	return false, err
}

func (f *fileTransport) close() error {
	err := f.w.Flush()
	if f.file != nil {
		if serr := f.file.Sync(); err == nil {
			err = serr
		}
		if cerr := f.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// connTransport is the lossy, asynchronous transport: a bounded queue
// drained onto the connection by one writer goroutine. A slow or stalled
// reader fills the queue and further records are refused, never waited
// for, so the emitting run cannot observe the reader at all.
type connTransport struct {
	conn   net.Conn
	queue  chan []byte
	done   chan struct{} // closed when the writer goroutine exits
	settle func(error)   // books each queued record's outcome
}

func (c *connTransport) send(b []byte) (bool, error) {
	select {
	case c.queue <- b:
		return true, nil
	default:
		return false, errRefused
	}
}

// writeLoop frames each queued payload with its 4-byte big-endian length.
// After the first write error the rest of the queue is settled as dropped
// without touching the connection.
func (c *connTransport) writeLoop() {
	defer close(c.done)
	var frame [4]byte
	var failed error
	for b := range c.queue {
		if failed == nil {
			binary.BigEndian.PutUint32(frame[:], uint32(len(b)))
			if _, failed = c.conn.Write(frame[:]); failed == nil {
				_, failed = c.conn.Write(b)
			}
		}
		c.settle(failed)
	}
}

func (c *connTransport) close() error {
	close(c.queue)
	<-c.done
	return c.conn.Close()
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
