package telemetry

import (
	"sort"
	"sync"
)

// This file implements the structured event log: discrete, low-rate
// happenings (a breaker opening, a quarantine verdict, a scrub repair),
// numbered in emission order, counted per name and handed to an optional
// sink. Unlike metrics, a sink sees events in order with their attributes;
// unlike spans, they are not tied to one operation's lifetime.
//
// Determinism: events carry no timestamps (the simulation has no global
// clock and the log must not read the wall clock). Sequence numbers are
// assigned under the log's lock; emit events only from deterministic call
// sites (serial paths, or a worker pool's ordered merge stage) when
// byte-identical logs across runs matter.

// Attr is one key=value attribute on an event.
type Attr struct {
	// Key names the attribute.
	Key string `json:"key"`
	// Value is its rendered value.
	Value string `json:"value"`
}

// A returns an Attr — shorthand for emit call sites.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is one logged happening.
type Event struct {
	// Seq is the 1-based emission sequence number.
	Seq uint64 `json:"seq"`
	// Name identifies the event kind (e.g. "breaker.open").
	Name string `json:"name"`
	// Attrs are the event's attributes, ordered as given.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Log is a structured event log: a sequence number, per-name counts and an
// optional sink. It is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	seq    uint64
	counts map[string]int64
	sink   func(Event) // optional, called under the lock in emission order
	attrs  []Attr      // the sink's copy of the current event's attributes
}

// NewLog creates an empty event log.
func NewLog() *Log {
	return &Log{counts: make(map[string]int64), attrs: make([]Attr, 0, slotAttrs)}
}

// SetSink installs a function invoked for every emitted event, in emission
// order (nil removes it). The sink runs under the log's lock: keep it
// cheap and never emit from inside it. The event's Attrs are the log's own
// storage, valid only during the call: a sink that keeps them copies them.
func (l *Log) SetSink(fn func(Event)) {
	l.mu.Lock()
	l.sink = fn
	l.mu.Unlock()
}

// Emit records an event. Nil-safe: emitting on a nil log is a no-op, so
// layers can hold an optional *Log without guarding every call. With a
// sink attached the attributes are copied into the log's own array, which
// the next event reuses, so the caller's argument list does not escape and
// an event of up to slotAttrs attributes allocates nothing.
func (l *Log) Emit(name string, attrs ...Attr) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.counts[name]++
	if l.sink != nil {
		l.attrs = append(l.attrs[:0], attrs...)
		l.sink(Event{Seq: l.seq, Name: name, Attrs: l.attrs})
	}
}

// slotAttrs is the attribute room the log starts with: the most any
// shipped event carries (scrub.repair's key, to and ok).
const slotAttrs = 3

// Counts returns per-name emission counts, sorted by name.
func (l *Log) Counts() []EventCount {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]EventCount, 0, len(l.counts))
	for name, n := range l.counts {
		out = append(out, EventCount{Name: name, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
