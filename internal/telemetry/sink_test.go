package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// One Sink over two kinds of file: every shared behaviour below runs
// against both through the transports table. The file arm writes a regular
// file, which Close fsyncs; the conn arm is a live reader at the far end of
// a FIFO, which is what -trace-out /dev/stdout feeds. Test names that say
// Socket or conn predate the FIFO; what they name now is the behaviour, not
// a type.

// rig is a sink plus the way to read back what it delivered.
type rig struct {
	*Sink
	// lines returns the delivered payloads, trailing '\n' stripped. Call it
	// after Close.
	lines func() []string
}

// transportCase is one transport under test.
type transportCase struct {
	name string
	// open returns a healthy rig, native or OTLP-encoding.
	open func(t *testing.T, otlp bool) rig
	// failing returns a sink whose destination rejects writes.
	failing func(t *testing.T) *Sink
}

var transports = []transportCase{
	{"file", openFileRig, func(t *testing.T) *Sink { return writerSink(&failingWriter{budget: 8}) }},
	{"conn", openFIFORig, func(t *testing.T) *Sink {
		// The reader hangs up before the first write, so every write that
		// reaches the FIFO fails with EPIPE.
		path := makeFIFO(t)
		hungUp := make(chan struct{})
		go func() {
			defer close(hungUp)
			if f, err := os.Open(path); err == nil {
				f.Close()
			}
		}()
		s := openSpec(t, path, false)
		<-hungUp
		return s
	}},
}

// writerSink returns a sink writing JSON lines to w.
func writerSink(w io.Writer) *Sink {
	return &Sink{w: bufio.NewWriter(w)}
}

// eachTransport runs fn as one subtest per transport.
func eachTransport(t *testing.T, fn func(t *testing.T, tr transportCase)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { fn(t, tr) })
	}
}

// openSpec opens a sink on path, OTLP-encoding when otlp is set.
func openSpec(t *testing.T, path string, otlp bool) *Sink {
	t.Helper()
	spec := path
	if otlp {
		spec = "otlp+file://" + path
	}
	s, err := OpenSink(spec)
	if err != nil {
		t.Fatalf("OpenSink(%q): %v", spec, err)
	}
	return s
}

func openFileRig(t *testing.T, otlp bool) rig {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	return rig{openSpec(t, path, otlp), fileLines(t, path)}
}

// fileLines returns a reader of the JSON-lines artifact at path.
func fileLines(t *testing.T, path string) func() []string {
	return func() []string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		return splitLines(t, data)
	}
}

// makeFIFO makes a FIFO under t.TempDir, skipping where FIFOs do not exist.
func makeFIFO(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.fifo")
	if err := mkfifo(path); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	return path
}

// openFIFORig opens a sink on a fresh FIFO that a goroutine drains until
// the sink closes its end.
func openFIFORig(t *testing.T, otlp bool) rig {
	t.Helper()
	path := makeFIFO(t)
	var data []byte
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		f, err := os.Open(path) // waits for the sink to open its end
		if err != nil {
			rerr = err
			return
		}
		defer f.Close()
		data, rerr = io.ReadAll(f)
	}()
	s := openSpec(t, path, otlp)
	return rig{s, func() []string {
		t.Helper()
		<-done
		if rerr != nil {
			t.Fatalf("FIFO reader: %v", rerr)
		}
		return splitLines(t, data)
	}}
}

// splitLines splits a JSON-lines artifact, insisting on the final newline.
func splitLines(t *testing.T, data []byte) []string {
	t.Helper()
	if len(data) == 0 {
		return nil
	}
	if data[len(data)-1] != '\n' {
		t.Fatalf("artifact does not end in a newline: %q", data)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// decode parses one delivered line.
func decode(t *testing.T, line string) map[string]any {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, line)
	}
	return rec
}

// emitOneOfEach offers one record of each of the five types.
func emitOneOfEach(s *Sink) {
	s.Note("run.start", A("scenario", "test"))
	s.Event(Event{Seq: 1, Name: "breaker.open", Attrs: []Attr{A("node", "n1")}})
	sp := NewSpan("lookup")
	sp.Tag("key", "k1")
	sp.Child("attempt").End("ok")
	sp.End("ok")
	s.Span(sp)
	reg := NewRegistry()
	reg.Counter("reads").Add(3)
	s.Snapshot(reg.Snapshot())
	w := NewWindows(reg, WindowsConfig{Width: 1})
	reg.Counter("reads").Add(2)
	w.Tick()
	s.Windows(w.Snapshot())
}

// mirroredDrops reads the drop counter SetTelemetry mirrors into reg.
func mirroredDrops(reg *Registry) int64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == SinkDroppedCounter {
			return c.Value
		}
	}
	return 0
}

// failingWriter fails every write after the first budget bytes.
type failingWriter struct{ budget int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, os.ErrClosed
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestWriterSinkEmitsParsableRecords(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transportCase) {
		s := tr.open(t, false)
		emitOneOfEach(s.Sink)
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if s.Records() != 5 || s.Dropped() != 0 {
			t.Fatalf("records=%d dropped=%d, want 5/0", s.Records(), s.Dropped())
		}
		lines := s.lines()
		wantTypes := []string{"note", "event", "span", "snapshot", "windows"}
		if len(lines) != len(wantTypes) {
			t.Fatalf("delivered %d records, want %d", len(lines), len(wantTypes))
		}
		for i, line := range lines {
			if got := decode(t, line)["type"]; got != wantTypes[i] {
				t.Fatalf("record %d type = %v, want %s", i, got, wantTypes[i])
			}
		}
		// The span record carries the tree: outcome, tags, child.
		var spanRec struct {
			Span struct {
				Name     string `json:"name"`
				Outcome  string `json:"outcome"`
				Tags     []Tag  `json:"tags"`
				Children []struct {
					Name string `json:"name"`
				} `json:"children"`
			} `json:"span"`
		}
		if err := json.Unmarshal([]byte(lines[2]), &spanRec); err != nil {
			t.Fatalf("span record: %v", err)
		}
		if spanRec.Span.Name != "lookup" || spanRec.Span.Outcome != "ok" ||
			len(spanRec.Span.Tags) != 1 || len(spanRec.Span.Children) != 1 {
			t.Fatalf("span record malformed: %+v", spanRec.Span)
		}

		// The same five through the OTLP encoding of the same transport.
		o := tr.open(t, true)
		emitOneOfEach(o.Sink)
		if err := o.Close(); err != nil {
			t.Fatalf("otlp close: %v", err)
		}
		wantTop := []string{"resourceLogs", "resourceLogs", "resourceSpans", "resourceMetrics", "resourceMetrics"}
		lines = o.lines()
		if len(lines) != len(wantTop) {
			t.Fatalf("otlp delivered %d records, want %d", len(lines), len(wantTop))
		}
		for i, line := range lines {
			if _, ok := decode(t, line)[wantTop[i]]; !ok {
				t.Fatalf("otlp record %d has no %s: %s", i, wantTop[i], line)
			}
		}
	})
}

func TestFileSinkEmitsWindowsRecord(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transportCase) {
		s := tr.open(t, false)
		reg := NewRegistry()
		w := NewWindows(reg, WindowsConfig{Width: 1})
		reg.Counter("n").Inc()
		w.Tick()
		s.Windows(w.Snapshot())
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		lines := s.lines()
		if len(lines) != 1 {
			t.Fatalf("delivered %d records, want 1", len(lines))
		}
		rec := decode(t, lines[0])
		if rec["type"] != "windows" {
			t.Fatalf("type = %v, want windows", rec["type"])
		}
		// The record carries the one closed window's delta.
		if wins := rec["windows"].(map[string]any)["windows"].([]any); len(wins) != 1 {
			t.Fatalf("windows record has %d windows, want 1", len(wins))
		}
	})
}

func TestFileSinkAttachLogRoutesEvents(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transportCase) {
		s := tr.open(t, false)
		l := NewLog()
		AttachLog(l, s.Sink)
		l.Emit("gate.shed", A("node", "n3"))
		l.Emit("gate.shed", A("node", "n4"))
		l.SetSink(nil)
		l.Emit("gate.shed", A("node", "n5")) // detached: not routed
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if got := s.Records(); got != 2 {
			t.Fatalf("Records() = %d, want the 2 routed events", got)
		}
		for i, line := range s.lines() {
			ev := decode(t, line)["event"].(map[string]any)
			if ev["name"] != "gate.shed" || ev["seq"] != float64(i+1) {
				t.Fatalf("routed event %d = %v", i, ev)
			}
		}
	})
}

func TestFileSinkNilReceiverSafe(t *testing.T) {
	var s *Sink
	s.Note("n")
	s.Event(Event{})
	s.Span(NewSpan("x"))
	s.Snapshot(Snapshot{})
	s.Windows(WindowsSnapshot{})
	s.SetTelemetry(NewRegistry())
	AttachLog(NewLog(), s)
	if s.Records() != 0 || s.Dropped() != 0 || s.Close() != nil {
		t.Fatal("nil sink not inert")
	}
}

// Nil arguments on a live sink: a nil span root is not an emission, a nil
// registry or log wires nothing.
func TestSocketSinkNilSafe(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transportCase) {
		s := tr.open(t, false)
		s.Span(nil)
		s.SetTelemetry(nil)
		AttachLog(nil, s.Sink)
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if s.Records() != 0 || s.Dropped() != 0 || len(s.lines()) != 0 {
			t.Fatalf("nil arguments produced records=%d dropped=%d", s.Records(), s.Dropped())
		}
	})
}

func TestFileSinkSurfacesWriteErrorViaErr(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transportCase) {
		s := tr.failing(t)
		for i := 0; i < 100; i++ {
			s.Note("some-note-long-enough-to-overflow-the-buffer")
		}
		first := s.Close()
		if first == nil {
			t.Fatal("close should report the write error")
		}
		// The first error is sticky: later emissions and a second Close
		// neither panic nor replace it.
		s.Note("after-error")
		if err := s.Close(); err != first {
			t.Fatalf("error not sticky: second Close() = %v, first = %v", err, first)
		}
	})
}

// Every record offered is either written or counted: Records + Dropped
// equals the number of emission calls, on a healthy sink, across the first
// transport error, and for records arriving after Close; the registry
// mirror tracks Dropped.
func TestSinkAccountsEveryRecord(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transportCase) {
		check := func(t *testing.T, s *Sink, reg *Registry, offered int64) {
			t.Helper()
			if got := s.Records() + s.Dropped(); got != offered {
				t.Fatalf("records %d + dropped %d = %d, want the %d offered", s.Records(), s.Dropped(), got, offered)
			}
			if m := mirroredDrops(reg); m != s.Dropped() {
				t.Fatalf("registry mirror = %d, sink dropped = %d", m, s.Dropped())
			}
		}
		t.Run("healthy", func(t *testing.T) {
			s, reg := tr.open(t, false), NewRegistry()
			s.SetTelemetry(reg)
			emitOneOfEach(s.Sink)
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			emitOneOfEach(s.Sink) // after Close: counted, not written
			if s.Records() != 5 || s.Dropped() != 5 || len(s.lines()) != 5 {
				t.Fatalf("records=%d dropped=%d delivered=%d, want 5/5/5", s.Records(), s.Dropped(), len(s.lines()))
			}
			check(t, s.Sink, reg, 10)
		})
		t.Run("failing", func(t *testing.T) {
			s, reg := tr.failing(t), NewRegistry()
			s.SetTelemetry(reg)
			const n = 300 // far past the file transport's 4 KB buffer
			for i := 0; i < n; i++ {
				s.Note("some-note-long-enough-to-overflow-the-buffer")
			}
			if s.Close() == nil {
				t.Fatal("close should report the write error")
			}
			s.Note("after-close")
			if s.Dropped() == 0 {
				t.Fatal("records after the first error must be counted as dropped")
			}
			check(t, s, reg, n+1)
		})
		t.Run("close-races-emitters", func(t *testing.T) {
			s, reg := tr.open(t, false), NewRegistry()
			s.SetTelemetry(reg)
			const emitters, each = 4, 200
			var wg sync.WaitGroup
			for g := 0; g < emitters; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						s.Note("tick")
						if g == 0 && i == each/2 {
							_ = s.Close()
						}
					}
				}()
			}
			wg.Wait()
			_ = s.Close()
			check(t, s.Sink, reg, emitters*each)
			if int64(len(s.lines())) != s.Records() {
				t.Fatalf("delivered %d records, Records() = %d", len(s.lines()), s.Records())
			}
		})
	})
}

func TestSocketSinkAfterCloseDropsQuietly(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transportCase) {
		s := tr.open(t, false)
		s.Note("before")
		_ = s.Close()
		s.Note("after") // must not panic or block
		if s.Records() != 1 || s.Dropped() != 1 {
			t.Fatalf("records=%d dropped=%d, want 1 written and the post-close one dropped", s.Records(), s.Dropped())
		}
		if err := s.Close(); err != nil { // double Close is safe
			t.Fatalf("second close: %v", err)
		}
		if len(s.lines()) != 1 {
			t.Fatalf("delivered %d records, want 1", len(s.lines()))
		}
	})
}

// Four goroutines export span trees through one OTLP file sink. The
// encoder's id sequence has one writer (the sink's lock), so the run is
// race-clean and no span or trace id repeats.
func TestSinkOTLPConcurrentSpansGetDistinctIDs(t *testing.T) {
	s := openFileRig(t, true)
	const emitters, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := NewSpan("lookup")
				sp.Child("route").Child("hop").End("ok")
				sp.Child("fetch").End("ok")
				sp.End("ok")
				s.Span(sp)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	lines := s.lines()
	if s.Dropped() != 0 || len(lines) != emitters*each {
		t.Fatalf("delivered %d of %d trees, %d dropped", len(lines), emitters*each, s.Dropped())
	}
	traces, spans := map[string]bool{}, map[string]bool{}
	for _, line := range lines {
		rs := decode(t, line)["resourceSpans"].([]any)[0].(map[string]any)
		tree := rs["scopeSpans"].([]any)[0].(map[string]any)["spans"].([]any)
		if len(tree) != 4 {
			t.Fatalf("tree flattened to %d spans, want 4", len(tree))
		}
		trace := tree[0].(map[string]any)["traceId"].(string)
		if traces[trace] {
			t.Fatalf("traceId %s exported twice", trace)
		}
		traces[trace] = true
		for _, sp := range tree {
			sp := sp.(map[string]any)
			if sp["traceId"] != trace {
				t.Fatalf("span %v left its tree's trace %s", sp, trace)
			}
			id := sp["spanId"].(string)
			if spans[id] {
				t.Fatalf("spanId %s exported twice", id)
			}
			spans[id] = true
		}
	}
}

func TestFileSinkWritesFile(t *testing.T) {
	// A bare path is created truncating: nothing of an older artifact stays.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte("stale artifact\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSink(path)
	if err != nil {
		t.Fatalf("OpenSink: %v", err)
	}
	s.Note("only")
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if lines := splitLines(t, data); len(lines) != 1 || decode(t, lines[0])["type"] != "note" {
		t.Fatalf("file is not the one note record: %s", data)
	}
}

func TestFileSinkCloseFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.jsonl")
	s, err := OpenSink("file://" + path)
	if err != nil {
		t.Fatalf("OpenSink: %v", err)
	}
	s.Note("only-record")
	// Before Close the record sits in the buffer (emission is no slower
	// than a buffered write); Close flushes, fsyncs and closes the file.
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("record reached the file before Close: %q", data)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(string(data), "only-record") {
		t.Fatalf("closed artifact missing the record: %q", data)
	}
	if _, err := s.file.Write(nil); err == nil {
		t.Fatal("Close left the file open")
	}
}

// TestSinkOnFIFODeliversEveryLine is the live-reader case, as in
// dosnd -trace-out /dev/stdout | reader: the records cross several buffer
// flushes, the reader gets every line in order, and Close succeeds although
// a FIFO cannot be fsynced.
func TestSinkOnFIFODeliversEveryLine(t *testing.T) {
	s := openFIFORig(t, false)
	const n = 500 // several times the 4 KiB write buffer
	for i := 0; i < n; i++ {
		s.Note("tick", A("i", strconv.Itoa(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close on a FIFO: %v", err)
	}
	lines := s.lines()
	if len(lines) != n || s.Records() != n {
		t.Fatalf("reader got %d lines, Records() = %d, want %d", len(lines), s.Records(), n)
	}
	for i, line := range lines {
		attrs := decode(t, line)["attrs"].([]any)
		if got := attrs[0].(map[string]any)["value"]; got != strconv.Itoa(i) {
			t.Fatalf("line %d carries note %v", i, got)
		}
	}
}

// roundTrip sends one note through OpenSink(spec) and checks that exactly
// it was delivered, as a record with the top-level key its encoding uses.
func roundTrip(t *testing.T, spec string, delivered func() []string, wantKey string) {
	t.Helper()
	s, err := OpenSink(spec)
	if err != nil {
		t.Fatalf("OpenSink(%q): %v", spec, err)
	}
	s.Note("hello", A("via", spec))
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := delivered()
	if len(got) != 1 || s.Records() != 1 {
		t.Fatalf("delivered %d records, Records() = %d, want 1/1", len(got), s.Records())
	}
	rec := decode(t, got[0])
	if _, ok := rec[wantKey]; !ok || (wantKey == "type" && (rec["type"] != "note" || rec["name"] != "hello")) {
		t.Fatalf("record = %s, want the hello note under %q", got[0], wantKey)
	}
}

func TestOpenSinkSpecs(t *testing.T) {
	dir := t.TempDir()
	encodings := []struct{ prefix, wantKey string }{{"", "type"}, {"otlp+", "resourceLogs"}}
	// A bare path and file://path, plain and with the otlp+ prefix, each
	// deliver one note in the encoding they name.
	for _, tc := range []struct{ name, scheme string }{{"bare-path", ""}, {"file", "file://"}} {
		for _, enc := range encodings {
			t.Run(enc.prefix+tc.name, func(t *testing.T) {
				path := filepath.Join(dir, enc.prefix+tc.name+".jsonl")
				roundTrip(t, enc.prefix+tc.scheme+path, fileLines(t, path), enc.wantKey)
			})
		}
	}
	// Socket schemes are not served: they fail at open, naming the forms
	// that are, rather than becoming a file path such as tcp:/host:port.
	for _, tc := range []struct{ name, addr string }{{"tcp", "tcp://127.0.0.1:1"}, {"unix", "unix:///x.sock"}} {
		for _, enc := range encodings {
			t.Run(enc.prefix+tc.name, func(t *testing.T) {
				spec := enc.prefix + tc.addr
				if s, err := OpenSink(spec); err == nil || s != nil || !strings.Contains(err.Error(), "file://") {
					t.Fatalf("OpenSink(%q) = %v, %v; want an error naming the accepted forms", spec, s, err)
				}
			})
		}
	}

	// Malformed, unserved or uncreatable specs fail at open time.
	for _, spec := range []string{"", "otlp+", "http://127.0.0.1:4318/v1/logs", "otlp+http://127.0.0.1:4318",
		filepath.Join(dir, "no-such-dir", "t.jsonl")} {
		if s, err := OpenSink(spec); err == nil || s != nil {
			t.Fatalf("OpenSink(%q) = %v, %v; want an error", spec, s, err)
		}
	}
}

// FuzzSinkEncode drives arbitrary names, attributes, tag strings (invalid
// UTF-8 included) and span-tree shapes through both encodings: every
// delivered payload is one valid JSON value ending in exactly one '\n',
// and nothing panics. Seeds: testdata/fuzz/FuzzSinkEncode.
func FuzzSinkEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, key, value string, shape []byte) {
		if len(shape) > 64 {
			shape = shape[:64]
		}
		root := NewSpan(name)
		stack := []*Span{root}
		for _, op := range shape {
			top := stack[len(stack)-1]
			switch op % 4 {
			case 0: // descend into a new child
				stack = append(stack, top.Child(name+string(rune(op))))
			case 1: // ascend
				if len(stack) > 1 {
					stack = stack[:len(stack)-1]
				}
			case 2:
				top.Tag(key, value)
			case 3:
				top.End(value)
			}
		}
		for _, otlp := range []bool{false, true} {
			var buf bytes.Buffer
			s := writerSink(&buf)
			if otlp {
				s.otlp = &otlpState{}
			}
			s.Note(name, A(key, value), A(value, key))
			s.Event(Event{Seq: uint64(len(shape)), Name: name, Attrs: []Attr{A(key, value)}})
			s.Span(root)
			if err := s.Close(); err != nil {
				t.Fatalf("otlp=%v close: %v", otlp, err)
			}
			if s.Records() != 3 || s.Dropped() != 0 {
				t.Fatalf("otlp=%v records=%d dropped=%d, want 3/0", otlp, s.Records(), s.Dropped())
			}
			lines := splitLines(t, buf.Bytes())
			if len(lines) != 3 {
				t.Fatalf("otlp=%v delivered %d records, want 3", otlp, len(lines))
			}
			for _, line := range lines {
				if !json.Valid([]byte(line)) || strings.Contains(line, "\n") {
					t.Fatalf("otlp=%v payload is not one JSON line: %q", otlp, line)
				}
			}
		}
	})
}
