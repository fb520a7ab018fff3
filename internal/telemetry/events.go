package telemetry

import (
	"slices"
	"sort"
	"sync"
)

// This file implements the structured event log: discrete, low-rate
// happenings (a breaker opening, a quarantine verdict, a scrub repair) kept
// in a bounded ring buffer with per-name counts and an optional sink.
// Unlike metrics, events preserve order and attributes; unlike spans, they
// are not tied to one operation's lifetime.
//
// Determinism: events carry no timestamps (the simulation has no global
// clock and the log must not read the wall clock). Sequence numbers are
// assigned under the log's lock; emit events only from deterministic call
// sites (serial paths, or a worker pool's ordered merge stage) when
// byte-identical logs across runs matter.

// DefaultLogCapacity is the ring size NewRegistry uses.
const DefaultLogCapacity = 256

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

// Log is a bounded structured event log. It is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	cap    int
	ring   []Event
	start  int // index of the oldest event in ring
	seq    uint64
	counts map[string]int64
	sink   func(Event) // optional, called under the lock in emission order
}

// NewLog creates an event log retaining the most recent capacity events
// (minimum 1).
func NewLog(capacity int) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{cap: capacity, counts: make(map[string]int64)}
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

// Emit appends an event. Nil-safe: emitting on a nil log is a no-op, so
// layers can hold an optional *Log without guarding every call. The
// attributes are copied into the ring slot's own array, which the next event
// written to that slot reuses, so the caller's argument list does not
// escape and, once the ring is full, an event of up to slotAttrs attributes
// allocates nothing.
func (l *Log) Emit(name string, attrs ...Attr) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	var e *Event
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, Event{Attrs: make([]Attr, 0, max(slotAttrs, len(attrs)))})
		e = &l.ring[len(l.ring)-1]
	} else {
		e = &l.ring[l.start]
		l.start = (l.start + 1) % l.cap
	}
	*e = Event{Seq: l.seq, Name: name, Attrs: append(e.Attrs[:0], attrs...)}
	l.counts[name]++
	if l.sink != nil {
		l.sink(*e)
	}
}

// slotAttrs is the attribute room each ring slot starts with: the most any
// shipped event carries (scrub.repair's key, to and ok).
const slotAttrs = 3

// Total returns how many events were emitted since the last reset
// (including ones the ring has since evicted).
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Recent returns the retained events, oldest first.
func (l *Log) Recent() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := slices.Concat(l.ring[l.start:], l.ring[:l.start])
	for i := range out {
		out[i].Attrs = slices.Clone(out[i].Attrs) // the slot's array is reused by later events
	}
	return out
}

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

// Reset clears the ring, counts, and sequence counter (the sink stays).
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring = nil
	l.start = 0
	l.seq = 0
	l.counts = make(map[string]int64)
}
