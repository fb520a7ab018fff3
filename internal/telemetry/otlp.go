package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// This file implements the OTLP-shaped JSON mapping: each telemetry record
// is rendered as one export-request-shaped object per line, structurally
// compatible with the OpenTelemetry protocol's JSON encoding so standard
// collectors and ad-hoc tooling can ingest godosn traces without a custom
// decoder:
//
//	snapshot/windows -> {"resourceMetrics":[{"scopeMetrics":[{"metrics":[…]}]}]}
//	span             -> {"resourceSpans":[{"scopeSpans":[{"spans":[…]}]}]}
//	event/note       -> {"resourceLogs":[{"scopeLogs":[{"logRecords":[…]}]}]}
//
// Counters map to monotonic sums, gauges to gauges, histograms to OTLP
// histogram datapoints (bucketCounts carries len(bounds)+1 entries, the
// overflow last, exactly the OTLP convention). Windowed snapshots map to
// delta-temporality datapoints attributed with window index and tick range.
//
// The simulation has no wall clock, so no mapping invents timestamps:
// span end times carry the simulated latency as nanoseconds-since-zero and
// every *TimeUnixNano field is otherwise "0". Span and trace IDs are
// deterministic per-sink sequence numbers — two identical runs export
// byte-identical OTLP streams, the same contract as every other sink.

// otlpScopeName labels every exported scope.
const otlpScopeName = "godosn"

// otlpState carries the per-sink deterministic ID sequence.
type otlpState struct {
	spanSeq uint64
}

// otlpAttr renders one key/value as an OTLP attribute.
func otlpAttr(key, value string) map[string]any {
	return map[string]any{"key": key, "value": map[string]any{"stringValue": value}}
}

// otlpIntAttr renders one integer attribute.
func otlpIntAttr(key string, v int64) map[string]any {
	return map[string]any{"key": key, "value": map[string]any{"intValue": fmt.Sprintf("%d", v)}}
}

// otlpAttrs converts event attributes.
func otlpAttrs(attrs []Attr) []map[string]any {
	out := make([]map[string]any, 0, len(attrs))
	for _, a := range attrs {
		out = append(out, otlpAttr(a.Key, a.Value))
	}
	return out
}

// otlpLog wraps one log record in the resourceLogs envelope.
func otlpLog(body string, attrs []map[string]any) map[string]any {
	return map[string]any{
		"resourceLogs": []any{map[string]any{
			"scopeLogs": []any{map[string]any{
				"scope": map[string]any{"name": otlpScopeName},
				"logRecords": []any{map[string]any{
					"timeUnixNano": "0",
					"body":         map[string]any{"stringValue": body},
					"attributes":   attrs,
				}},
			}},
		}},
	}
}

// otlpSumMetric renders one counter-style metric.
func otlpSumMetric(name string, value int64, temporality int, attrs []map[string]any) map[string]any {
	dp := map[string]any{"timeUnixNano": "0", "asInt": fmt.Sprintf("%d", value)}
	if len(attrs) > 0 {
		dp["attributes"] = attrs
	}
	return map[string]any{
		"name": name,
		"sum": map[string]any{
			"aggregationTemporality": temporality,
			"isMonotonic":            true,
			"dataPoints":             []any{dp},
		},
	}
}

// otlpGaugeMetric renders one gauge metric.
func otlpGaugeMetric(name string, value float64, attrs []map[string]any) map[string]any {
	dp := map[string]any{"timeUnixNano": "0", "asDouble": value}
	if len(attrs) > 0 {
		dp["attributes"] = attrs
	}
	return map[string]any{
		"name":  name,
		"gauge": map[string]any{"dataPoints": []any{dp}},
	}
}

// otlpHistogramMetric renders one histogram metric from bucket values plus
// overflow. OTLP bucketCounts has len(explicitBounds)+1 entries.
func otlpHistogramMetric(name, unit string, count int64, sum float64, buckets []BucketValue, overflow int64, temporality int, attrs []map[string]any) map[string]any {
	bounds := make([]float64, len(buckets))
	counts := make([]string, len(buckets)+1)
	for i, b := range buckets {
		bounds[i] = b.LE
		counts[i] = fmt.Sprintf("%d", b.Count)
	}
	counts[len(buckets)] = fmt.Sprintf("%d", overflow)
	dp := map[string]any{
		"timeUnixNano":   "0",
		"count":          fmt.Sprintf("%d", count),
		"sum":            sum,
		"bucketCounts":   counts,
		"explicitBounds": bounds,
	}
	if len(attrs) > 0 {
		dp["attributes"] = attrs
	}
	return map[string]any{
		"name": name,
		"unit": unit,
		"histogram": map[string]any{
			"aggregationTemporality": temporality,
			"dataPoints":             []any{dp},
		},
	}
}

// otlpMetricsEnvelope wraps metrics in the resourceMetrics envelope.
func otlpMetricsEnvelope(metrics []any) map[string]any {
	return map[string]any{
		"resourceMetrics": []any{map[string]any{
			"scopeMetrics": []any{map[string]any{
				"scope":   map[string]any{"name": otlpScopeName},
				"metrics": metrics,
			}},
		}},
	}
}

// otlpFromSnapshot maps a registry snapshot to cumulative-temporality
// metrics (OTLP temporality 2).
func otlpFromSnapshot(snap Snapshot) map[string]any {
	var metrics []any
	for _, c := range snap.Counters {
		metrics = append(metrics, otlpSumMetric(c.Name, c.Value, 2, nil))
	}
	for _, g := range snap.Gauges {
		metrics = append(metrics, otlpGaugeMetric(g.Name, g.Value, nil))
	}
	for _, h := range snap.Histograms {
		metrics = append(metrics, otlpHistogramMetric(h.Name, h.Unit, h.Count, h.Sum, h.Buckets, h.Overflow, 2, nil))
	}
	for _, e := range snap.Events {
		metrics = append(metrics, otlpSumMetric("event_"+e.Name+"_total", e.Count, 2, nil))
	}
	return otlpMetricsEnvelope(metrics)
}

// otlpFromWindows maps a windowed snapshot to delta-temporality metrics
// (OTLP temporality 1), each datapoint attributed with its window.
func otlpFromWindows(ws WindowsSnapshot) map[string]any {
	var metrics []any
	for _, w := range ws.Windows {
		attrs := []map[string]any{
			otlpIntAttr("window", int64(w.Index)),
			otlpIntAttr("from_tick", int64(w.FromTick)),
			otlpIntAttr("to_tick", int64(w.ToTick)),
		}
		for _, c := range w.Counters {
			metrics = append(metrics, otlpSumMetric(c.Name, c.Value, 1, attrs))
		}
		for _, g := range w.Gauges {
			metrics = append(metrics, otlpGaugeMetric(g.Name, g.Value, attrs))
		}
		for _, h := range w.Histograms {
			metrics = append(metrics, otlpHistogramMetric(h.Name, h.Unit, h.Count, h.Sum, h.Buckets, h.Overflow, 1, attrs))
		}
		for _, e := range w.Events {
			metrics = append(metrics, otlpSumMetric("event_"+e.Name+"_total", e.Count, 1, attrs))
		}
	}
	return otlpMetricsEnvelope(metrics)
}

// otlpID renders a deterministic hex ID of width bytes from a sequence
// number (fnv-64a over the sequence, repeated to fill).
func otlpID(seq uint64, width int) string {
	h := uint64(fnvOffsetOTLP)
	for i := 0; i < 8; i++ {
		h ^= (seq >> (8 * i)) & 0xff
		h *= fnvPrimeOTLP
	}
	out := make([]byte, 0, width*2)
	for len(out) < width*2 {
		out = append(out, []byte(fmt.Sprintf("%016x", h))...)
		h *= fnvPrimeOTLP
		h ^= seq + 1
	}
	return string(out[:width*2])
}

const (
	fnvOffsetOTLP = 14695981039346656037
	fnvPrimeOTLP  = 1099511628211
)

// otlpFromSpan flattens one span tree into OTLP spans sharing a trace ID.
func otlpFromSpan(root *spanJSON, st *otlpState) map[string]any {
	st.spanSeq++
	traceID := otlpID(st.spanSeq, 16)
	var spans []any
	var walk func(sp *spanJSON, parent string)
	walk = func(sp *spanJSON, parent string) {
		st.spanSeq++
		id := otlpID(st.spanSeq, 8)
		attrs := make([]map[string]any, 0, len(sp.Tags)+1)
		for _, t := range sp.Tags {
			attrs = append(attrs, otlpAttr(t.Key, t.Value))
		}
		status := map[string]any{"code": 1} // OK
		if sp.Outcome != "" && sp.Outcome != "ok" {
			attrs = append(attrs, otlpAttr("outcome", sp.Outcome))
		}
		span := map[string]any{
			"traceId":           traceID,
			"spanId":            id,
			"name":              sp.Name,
			"kind":              1, // INTERNAL
			"startTimeUnixNano": "0",
			// Simulated latency as nanoseconds-since-zero: the simulation
			// has no wall clock, so the duration is the only time there is.
			"endTimeUnixNano": fmt.Sprintf("%d", int64(sp.LatencyMS*float64(time.Millisecond))),
			"status":          status,
		}
		if parent != "" {
			span["parentSpanId"] = parent
		}
		if len(attrs) > 0 {
			span["attributes"] = attrs
		}
		spans = append(spans, span)
		for _, c := range sp.Children {
			walk(c, id)
		}
	}
	walk(root, "")
	return map[string]any{
		"resourceSpans": []any{map[string]any{
			"scopeSpans": []any{map[string]any{
				"scope": map[string]any{"name": otlpScopeName},
				"spans": spans,
			}},
		}},
	}
}

// otlpMarshal renders one sink record as its OTLP-shaped JSON line.
func otlpMarshal(rec sinkRecord, st *otlpState) ([]byte, error) {
	var obj map[string]any
	switch rec.Type {
	case "event":
		attrs := otlpAttrs(rec.Event.Attrs)
		attrs = append(attrs, otlpIntAttr("seq", int64(rec.Event.Seq)))
		obj = otlpLog(rec.Event.Name, attrs)
	case "note":
		obj = otlpLog(rec.Name, otlpAttrs(rec.Attrs))
	case "span":
		obj = otlpFromSpan(rec.Span, st)
	case "snapshot":
		obj = otlpFromSnapshot(*rec.Snapshot)
	case "windows":
		obj = otlpFromWindows(*rec.Windows)
	default:
		return nil, fmt.Errorf("telemetry: otlp: unknown record type %q", rec.Type)
	}
	return json.Marshal(obj)
}
