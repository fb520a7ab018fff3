package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// otlpDecode round-trips one record through otlpMarshal.
func otlpDecode(t *testing.T, rec sinkRecord, st *otlpState) map[string]any {
	t.Helper()
	b, err := otlpMarshal(rec, st)
	if err != nil {
		t.Fatalf("otlpMarshal: %v", err)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

func TestOTLPSnapshotMapping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reads_total").Add(7)
	reg.Gauge("depth").Set(2.5)
	reg.Histogram("lat_ms", "ms", []float64{1, 10}).Observe(3)
	snap := reg.Snapshot()

	out := otlpDecode(t, sinkRecord{Type: "snapshot", Snapshot: &snap}, &otlpState{})
	rms := out["resourceMetrics"].([]any)
	sms := rms[0].(map[string]any)["scopeMetrics"].([]any)
	metrics := sms[0].(map[string]any)["metrics"].([]any)
	if len(metrics) != 3 {
		t.Fatalf("mapped %d metrics, want 3", len(metrics))
	}
	byName := map[string]map[string]any{}
	for _, m := range metrics {
		mm := m.(map[string]any)
		byName[mm["name"].(string)] = mm
	}
	// Counter: cumulative monotonic sum.
	sum := byName["reads_total"]["sum"].(map[string]any)
	if sum["aggregationTemporality"].(float64) != 2 || sum["isMonotonic"] != true {
		t.Fatalf("counter sum = %v, want cumulative monotonic", sum)
	}
	dp := sum["dataPoints"].([]any)[0].(map[string]any)
	if dp["asInt"] != "7" {
		t.Fatalf("counter dataPoint = %v, want asInt \"7\"", dp)
	}
	if dp["timeUnixNano"] != "0" {
		t.Fatalf("timestamps must be pinned to \"0\" (no wall clock), got %v", dp["timeUnixNano"])
	}
	// Histogram: bucketCounts has len(bounds)+1 entries, overflow last.
	hist := byName["lat_ms"]["histogram"].(map[string]any)
	hdp := hist["dataPoints"].([]any)[0].(map[string]any)
	bounds := hdp["explicitBounds"].([]any)
	counts := hdp["bucketCounts"].([]any)
	if len(counts) != len(bounds)+1 {
		t.Fatalf("bucketCounts len %d, want bounds+1 = %d", len(counts), len(bounds)+1)
	}
	if counts[1] != "1" { // 3ms lands in (1,10]
		t.Fatalf("bucketCounts = %v, want observation in second bucket", counts)
	}
}

func TestOTLPWindowsMappingUsesDeltaTemporality(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops")
	w := NewWindows(reg, WindowsConfig{Width: 2})
	c.Add(4)
	w.Tick()
	w.Tick()
	c.Add(1)
	w.Tick()
	w.Tick()

	out := otlpDecode(t, sinkRecord{Type: "windows", Windows: ptrWindows(w.Snapshot())}, &otlpState{})
	rms := out["resourceMetrics"].([]any)
	metrics := rms[0].(map[string]any)["scopeMetrics"].([]any)[0].(map[string]any)["metrics"].([]any)
	if len(metrics) != 2 {
		t.Fatalf("mapped %d window datapoint metrics, want 2 (one per window)", len(metrics))
	}
	for _, m := range metrics {
		sum := m.(map[string]any)["sum"].(map[string]any)
		if sum["aggregationTemporality"].(float64) != 1 {
			t.Fatalf("window sum temporality = %v, want 1 (delta)", sum["aggregationTemporality"])
		}
		dp := sum["dataPoints"].([]any)[0].(map[string]any)
		attrs := dp["attributes"].([]any)
		keys := map[string]bool{}
		for _, a := range attrs {
			keys[a.(map[string]any)["key"].(string)] = true
		}
		for _, want := range []string{"window", "from_tick", "to_tick"} {
			if !keys[want] {
				t.Fatalf("window datapoint missing %q attribute: %v", want, attrs)
			}
		}
	}
}

func ptrWindows(ws WindowsSnapshot) *WindowsSnapshot { return &ws }

func TestOTLPSpanMappingDeterministicIDs(t *testing.T) {
	build := func() ([]byte, error) {
		sp := NewSpan("lookup")
		child := sp.Child("attempt")
		child.End("ok")
		sp.End("ok")
		return otlpMarshal(sinkRecord{Type: "span", Span: spanToJSON(sp)}, &otlpState{})
	}
	a, errA := build()
	b, errB := build()
	if errA != nil || errB != nil {
		t.Fatalf("marshal: %v / %v", errA, errB)
	}
	if string(a) != string(b) {
		t.Fatalf("span mapping not byte-identical across fresh states:\n%s\nvs\n%s", a, b)
	}
	var out map[string]any
	if err := json.Unmarshal(a, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	spans := out["resourceSpans"].([]any)[0].(map[string]any)["scopeSpans"].([]any)[0].(map[string]any)["spans"].([]any)
	if len(spans) != 2 {
		t.Fatalf("flattened %d spans, want 2", len(spans))
	}
	root := spans[0].(map[string]any)
	child := spans[1].(map[string]any)
	if root["traceId"] != child["traceId"] {
		t.Fatal("child must share the root's traceId")
	}
	if child["parentSpanId"] != root["spanId"] {
		t.Fatal("child's parentSpanId must be the root's spanId")
	}
	if len(root["traceId"].(string)) != 32 || len(root["spanId"].(string)) != 16 {
		t.Fatalf("ID widths: traceId %q spanId %q, want 32/16 hex chars", root["traceId"], root["spanId"])
	}
}

func TestOTLPNoteMapsToLogRecord(t *testing.T) {
	out := otlpDecode(t, sinkRecord{Type: "note", Name: "scenario.start", Attrs: []Attr{A("name", "x")}}, &otlpState{})
	logs := out["resourceLogs"].([]any)[0].(map[string]any)["scopeLogs"].([]any)[0].(map[string]any)["logRecords"].([]any)
	body := logs[0].(map[string]any)["body"].(map[string]any)
	if body["stringValue"] != "scenario.start" {
		t.Fatalf("log body = %v, want scenario.start", body)
	}
}

func TestOTLPFileSinkWritesParsableLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.otlp.jsonl")
	s, err := OpenSink("otlp+file://" + path)
	if err != nil {
		t.Fatalf("OpenSink: %v", err)
	}
	reg := NewRegistry()
	reg.Counter("n").Inc()
	s.Note("start")
	s.Snapshot(reg.Snapshot())
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if s.Records() != 2 {
		t.Fatalf("records = %d, want 2", s.Records())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for i, top := range []string{"resourceLogs", "resourceMetrics"} {
		var rec map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if _, ok := rec[top]; !ok {
			t.Fatalf("line %d is not OTLP-shaped (no %s): %s", i, top, lines[i])
		}
	}
}
