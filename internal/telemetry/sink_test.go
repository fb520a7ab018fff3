package telemetry

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFileSinkMaxBytesCapCountsDrops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capped.jsonl")
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatalf("NewFileSink: %v", err)
	}
	reg := NewRegistry()
	s.SetTelemetry(reg)
	s.SetMaxBytes(64) // room for one small record, not ten

	for i := 0; i < 10; i++ {
		s.Note("n")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if s.Dropped() == 0 {
		t.Fatal("expected drops once the byte cap was hit")
	}
	if s.Records()+s.Dropped() != 10 {
		t.Fatalf("records %d + dropped %d != 10", s.Records(), s.Dropped())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if int64(len(data)) > 64 {
		t.Fatalf("artifact is %d bytes, cap was 64", len(data))
	}
	// Mirrored drop counter matches.
	for _, c := range reg.Snapshot().Counters {
		if c.Name == SinkDroppedCounter && c.Value != s.Dropped() {
			t.Fatalf("mirrored drops %d != sink drops %d", c.Value, s.Dropped())
		}
	}
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct{ budget int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, os.ErrClosed
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestFileSinkSurfacesWriteErrorViaErr(t *testing.T) {
	s := NewWriterSink(&failingWriter{budget: 8})
	for i := 0; i < 100; i++ {
		s.Note("some-note-long-enough-to-overflow-the-buffer")
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush should surface the writer error")
	}
	if s.Err() == nil {
		t.Fatal("Err() should retain the first write error")
	}
	// Emission after the error stays silent (no panic, no new state).
	s.Note("after-error")
	if err := s.Close(); err == nil {
		t.Fatal("close should report the retained error")
	}
}

func TestFileSinkCloseFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.jsonl")
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatalf("NewFileSink: %v", err)
	}
	s.Note("only-record")
	// Before Close the record may sit in the bufio buffer; after Close (which
	// flushes and fsyncs) it must be on disk.
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
}

func TestOpenSinkSpecs(t *testing.T) {
	dir := t.TempDir()

	// Bare path and file:// both yield a JSONL FileSink.
	for _, spec := range []string{filepath.Join(dir, "a.jsonl"), "file://" + filepath.Join(dir, "b.jsonl")} {
		s, err := OpenSink(spec)
		if err != nil {
			t.Fatalf("OpenSink(%q): %v", spec, err)
		}
		if _, ok := s.(*FileSink); !ok {
			t.Fatalf("OpenSink(%q) = %T, want *FileSink", spec, s)
		}
		s.Note("x")
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	// otlp+ prefix on a file path yields the same file sink with the
	// OTLP-shaped encoder.
	s, err := OpenSink("otlp+" + filepath.Join(dir, "c.jsonl"))
	if err != nil {
		t.Fatalf("OpenSink otlp+file: %v", err)
	}
	if fs, ok := s.(*FileSink); !ok || fs.otlp == nil {
		t.Fatalf("OpenSink otlp+file = %T, want an OTLP-encoding *FileSink", s)
	}
	_ = s.Close()

	// tcp:// dials a socket sink (in-process listener).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	ts, err := OpenSink("tcp://" + ln.Addr().String())
	if err != nil {
		t.Fatalf("OpenSink tcp: %v", err)
	}
	if _, ok := ts.(*SocketSink); !ok {
		t.Fatalf("OpenSink tcp = %T, want *SocketSink", ts)
	}
	ts.Note("x")
	_ = ts.Close()
	wg.Wait()

	// unix:// dials a unix-domain socket sink.
	sock := filepath.Join(dir, "t.sock")
	uln, err := net.Listen("unix", sock)
	if err != nil {
		t.Skipf("unix sockets unavailable: %v", err)
	}
	defer uln.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := uln.Accept()
		if err == nil {
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}
	}()
	us, err := OpenSink("unix://" + sock)
	if err != nil {
		t.Fatalf("OpenSink unix: %v", err)
	}
	us.Note("x")
	_ = us.Close()
	wg.Wait()

	// Malformed specs fail loudly.
	if _, err := OpenSink(""); err == nil {
		t.Fatal("empty spec should error")
	}
	if _, err := OpenSink("otlp+"); err == nil {
		t.Fatal("otlp+ with no transport should error")
	}
	if _, err := OpenSink("tcp://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable tcp endpoint should error at open time")
	}
}

func TestFileSinkEmitsWindowsRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.jsonl")
	s, err := NewFileSink(path)
	if err != nil {
		t.Fatalf("NewFileSink: %v", err)
	}
	reg := NewRegistry()
	w := NewWindows(reg, WindowsConfig{Width: 1})
	reg.Counter("n").Inc()
	w.Tick()
	s.Windows(w.Snapshot())
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, _ := os.ReadFile(path)
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record not JSON: %v", err)
	}
	if rec["type"] != "windows" {
		t.Fatalf("type = %v, want windows", rec["type"])
	}
}
