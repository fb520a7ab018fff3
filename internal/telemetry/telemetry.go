// Package telemetry is the framework's observability layer: a metrics
// registry (counters, gauges, fixed-bucket latency histograms), lightweight
// request tracing (span trees, span.go), and a structured event log (ring
// buffer plus optional sink, events.go).
//
// LibreSocial ships its monitoring plugin as a first-class framework
// component, and DECENT's evaluation hinges on per-operation latency
// breakdowns; this package is the equivalent substrate for godosn. Every
// layer that makes a recovery or integrity decision — overlay lookups,
// resilience retries/hedges, the circuit breaker, DHT heal passes, the
// scrubber — reports through one Registry, so an experiment (or the dosnd
// daemon's /metrics endpoint) can answer "where did this lookup spend its
// time" and "how many hedges fired" without ad-hoc counters.
//
// Determinism contract: the registry performs no wall-clock reads of its
// own. Histograms record whatever the caller observes — under the seeded
// simnet that is simulated latency, so two runs with identical seeds
// produce byte-identical Snapshot and WriteText output at any worker count
// (counter and histogram updates commute; snapshots iterate in sorted name
// order). Wall-clock numbers only enter a registry when a caller outside
// the simulation (e.g. the bench harness timing a whole experiment)
// explicitly observes them.
//
// All types are safe for concurrent use.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// cacheLine is the padding unit that keeps shards out of each other's cache
// lines.
const cacheLine = 64

// Counter is a monotonically increasing (resettable) integer metric.
type Counter struct {
	v atomic.Int64

	mu     sync.Mutex
	shards []*Counter // children, in creation order
}

// counterShard pads a child counter to whole cache lines, which also aligns
// it to one.
type counterShard struct {
	Counter
	_ [cacheLine - unsafe.Sizeof(Counter{})%cacheLine]byte
}

// Shard returns a child counter on a cache line of its own. A writer that
// owns its shard never contends with the owners of the others; Value and
// Reset on the parent fold the children in, so the metric reads the same as
// if every increment had landed on the parent.
func (c *Counter) Shard() *Counter {
	s := &new(counterShard).Counter
	c.mu.Lock()
	c.shards = append(c.shards, s)
	c.mu.Unlock()
	return s
}

// children returns the shard list as of now.
func (c *Counter) children() []*Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count, shards included.
func (c *Counter) Value() int64 {
	sum := c.v.Load()
	for _, s := range c.children() {
		sum += s.Value()
	}
	return sum
}

// Reset zeroes the counter and its shards (between experiment phases).
func (c *Counter) Reset() {
	c.v.Store(0)
	for _, s := range c.children() {
		s.Reset()
	}
}

// Gauge is a last-value-wins float metric (e.g. nodes currently
// quarantined).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax raises the gauge to v unless it already holds at least v — a
// high-water mark that stays correct when several goroutines report at once.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. Bucket bounds are upper
// bounds (inclusive); observations above the last bound land in Overflow.
// Allocation happens once at creation — Observe is allocation-free.
type Histogram struct {
	unit   string
	bounds []float64

	mu       sync.Mutex
	counts   []int64
	overflow int64
	count    int64
	sum      float64
	max      float64
	shards   []*Histogram // children, in creation order
}

// histogramShard pads a child histogram like counterShard.
type histogramShard struct {
	Histogram
	_ [cacheLine - unsafe.Sizeof(Histogram{})%cacheLine]byte
}

// newHistogram fills in h. pad rounds the bucket array up to whole cache
// lines, so that two shards' arrays never share one.
func newHistogram(h *Histogram, unit string, bounds []float64, pad bool) *Histogram {
	n := len(bounds)
	if pad {
		const perLine = cacheLine / 8
		n = (n + perLine - 1) / perLine * perLine
	}
	h.unit, h.bounds, h.counts = unit, bounds, make([]int64, len(bounds), n)
	return h
}

// Shard returns a child histogram with the same unit and bounds, behind a
// lock and on cache lines of its own. Count, Sum, Snapshot and Reset on the
// parent fold the children in, in creation order, so the metric reads the
// same as if every observation had landed on the parent.
func (h *Histogram) Shard() *Histogram {
	s := newHistogram(&new(histogramShard).Histogram, h.unit, h.bounds, true)
	h.mu.Lock()
	h.shards = append(h.shards, s)
	h.mu.Unlock()
	return s
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.overflow++
}

// ObserveDuration records a latency in milliseconds — the framework's
// convention for simulated-latency histograms (LatencyBuckets).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// value snapshots the histogram with its shards folded in.
func (h *Histogram) value(name string) HistogramValue {
	hv := HistogramValue{Name: name, Unit: h.unit, Buckets: make([]BucketValue, len(h.bounds))}
	for i, b := range h.bounds {
		hv.Buckets[i].LE = b
	}
	h.addTo(&hv)
	return hv
}

// addTo accumulates h, then its shards, into hv.
func (h *Histogram) addTo(hv *HistogramValue) {
	h.mu.Lock()
	hv.Count += h.count
	hv.Sum += h.sum
	if h.max > hv.Max {
		hv.Max = h.max
	}
	hv.Overflow += h.overflow
	for i, c := range h.counts {
		hv.Buckets[i].Count += c
	}
	shards := h.shards
	h.mu.Unlock()
	for _, s := range shards {
		s.addTo(hv)
	}
}

// reset zeroes the histogram and its shards.
func (h *Histogram) reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.overflow, h.count, h.sum, h.max = 0, 0, 0, 0
	shards := h.shards
	h.mu.Unlock()
	for _, s := range shards {
		s.reset()
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.value("").Count }

// LatencyBuckets returns the standard millisecond bucket bounds used for
// simulated-latency histograms.
func LatencyBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
}

// Registry is a named collection of metrics plus the structured event log.
// Metric handles are get-or-create: the first caller fixes a histogram's
// unit and buckets, later callers share the same instance.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   *Log
}

// NewRegistry creates an empty registry with a default-capacity event log.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		events:   NewLog(DefaultLogCapacity),
	}
}

// Counter returns the named counter, creating it at zero if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given unit
// and bucket bounds (ascending) if needed. An existing histogram keeps its
// original unit and bounds.
func (r *Registry) Histogram(name, unit string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(new(Histogram), unit, append([]float64(nil), bounds...), false)
		r.hists[name] = h
	}
	return h
}

// Events returns the registry's structured event log.
func (r *Registry) Events() *Log { return r.events }

// Reset zeroes every registered metric and clears the event log, keeping
// the handles callers hold valid (between experiment phases).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.events.Reset()
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	// Name identifies the counter.
	Name string `json:"name"`
	// Value is the count at snapshot time.
	Value int64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	// Name identifies the gauge.
	Name string `json:"name"`
	// Value is the last recorded value.
	Value float64 `json:"value"`
}

// BucketValue is one histogram bucket in a snapshot.
type BucketValue struct {
	// LE is the bucket's inclusive upper bound.
	LE float64 `json:"le"`
	// Count is the number of observations in this bucket (non-cumulative).
	Count int64 `json:"count"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	// Name identifies the histogram.
	Name string `json:"name"`
	// Unit is the observed unit (e.g. "ms").
	Unit string `json:"unit"`
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of observed values.
	Sum float64 `json:"sum"`
	// Max is the largest observed value (0 with no observations).
	Max float64 `json:"max"`
	// Buckets are the per-bucket counts in bound order.
	Buckets []BucketValue `json:"buckets"`
	// Overflow counts observations above the last bound.
	Overflow int64 `json:"overflow"`
}

// EventCount is one event name's occurrence count in a snapshot.
type EventCount struct {
	// Name identifies the event.
	Name string `json:"name"`
	// Count is how many times it was emitted.
	Count int64 `json:"count"`
}

// Snapshot is a point-in-time, sorted, JSON-encodable view of a registry —
// the `telemetry` section of the godosn/bench/v2 report.
type Snapshot struct {
	// Counters are the counter values, sorted by name.
	Counters []CounterValue `json:"counters"`
	// Gauges are the gauge values, sorted by name (omitted when empty).
	Gauges []GaugeValue `json:"gauges,omitempty"`
	// Histograms are the histogram values, sorted by name (omitted when
	// empty).
	Histograms []HistogramValue `json:"histograms,omitempty"`
	// Events are per-event-name emission counts, sorted by name (omitted
	// when empty). The raw ring buffer stays process-local.
	Events []EventCount `json:"events,omitempty"`
}

// Snapshot captures the registry's current state in sorted name order, so
// two deterministic runs render byte-identical snapshots.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Counters: []CounterValue{}}
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	for name, h := range r.hists {
		snap.Histograms = append(snap.Histograms, h.value(name))
	}
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	snap.Events = r.events.Counts()
	return snap
}

// WriteText renders the snapshot as a plain-text /metrics-style dump:
// one `name value` line per counter and gauge, and per-histogram lines for
// count, sum, max and each bucket. Deterministic: sorted name order.
func (s Snapshot) WriteText(w io.Writer) {
	for _, c := range s.Counters {
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "%s %g\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "%s_count %d\n", h.Name, h.Count)
		fmt.Fprintf(w, "%s_sum{unit=%q} %.3f\n", h.Name, h.Unit, h.Sum)
		fmt.Fprintf(w, "%s_max{unit=%q} %.3f\n", h.Name, h.Unit, h.Max)
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, fmt.Sprintf("%g", b.LE), b.Count)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Overflow)
	}
	for _, e := range s.Events {
		fmt.Fprintf(w, "event_%s_total %d\n", e.Name, e.Count)
	}
}

// WriteText renders the registry's current state (Snapshot().WriteText).
func (r *Registry) WriteText(w io.Writer) { r.Snapshot().WriteText(w) }
