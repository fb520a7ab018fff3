package resilience

import (
	"sort"
	"sync"
	"sync/atomic"

	"godosn/internal/telemetry"
)

// The circuit breaker opens a node's circuit after breakerThreshold
// consecutive failures, then refuses breakerCooldown Allow calls before it
// lets a single half-open probe through; a failed probe re-opens the circuit
// for another cooldown.
const (
	breakerThreshold = 3
	breakerCooldown  = 8
)

// Breaker is a per-node health tracker: a circuit breaker over node names.
// Nodes observed down are skipped (Allow returns false) until a half-open
// probe succeeds. It is safe for concurrent use.
type Breaker struct {
	mu         sync.Mutex
	nodes      map[string]*breakerState
	events     *telemetry.Log    // nil until SetEvents
	quarantine func(node string) // nil until SetQuarantineHook
	// quarantined counts the nodes that are open and tainted. Every
	// transition keeps it under mu, so Quarantined, the placement filter on
	// every replica of every write and plan, answers without the lock while
	// no node is quarantined.
	quarantined atomic.Int32
}

// SetQuarantineHook installs a callback fired (outside the breaker's lock)
// each time a node transitions into quarantine — open + corruption-tainted.
// The resilient KV uses it to drop cached values and memoized routes that
// predate the quarantine.
func (b *Breaker) SetQuarantineHook(fn func(node string)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.quarantine = fn
}

// SetEvents routes circuit transitions — breaker.open, breaker.close,
// breaker.quarantine — to a telemetry event log (nil disables).
func (b *Breaker) SetEvents(log *telemetry.Log) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = log
}

type breakerState struct {
	fails   int  // consecutive failures
	open    bool // circuit open: node presumed down
	skips   int  // Allow refusals remaining before a probe
	tainted bool // a failure was a corruption verdict, not mere loss
}

func (s *breakerState) isQuarantined() bool { return s.open && s.tainted }

// state returns node's state, creating a closed one. Call with mu held.
func (b *Breaker) state(node string) *breakerState {
	s := b.nodes[node]
	if s == nil {
		s = &breakerState{}
		b.nodes[node] = s
	}
	return s
}

// tally keeps the quarantine count across one transition of s; was is
// whether s was quarantined before it. Call with mu held.
func (b *Breaker) tally(was bool, s *breakerState) {
	switch now := s.isQuarantined(); {
	case now && !was:
		b.quarantined.Add(1)
	case was && !now:
		b.quarantined.Add(-1)
	}
}

// NewBreaker creates a breaker with every circuit closed.
func NewBreaker() *Breaker {
	return &Breaker{nodes: make(map[string]*breakerState)}
}

// Allow reports whether the node should be tried. While a circuit is open
// it refuses breakerCooldown calls, then admits one half-open probe; the
// probe's Report decides whether the circuit closes or re-opens.
func (b *Breaker) Allow(node string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.nodes[node]
	if s == nil || !s.open {
		return true
	}
	if s.skips > 0 {
		s.skips--
		return false
	}
	return true // half-open probe
}

// Report records an observation of the node. Success closes its circuit
// and clears the failure count; failure increments it and opens the
// circuit at the threshold (or re-opens it after a failed probe).
func (b *Breaker) Report(node string, ok bool) {
	var quarantined func(string)
	b.mu.Lock()
	s := b.state(node)
	was := s.isQuarantined()
	if ok {
		if s.open {
			b.events.Emit("breaker.close", telemetry.A("node", node))
		}
		s.fails = 0
		s.open = false
		s.skips = 0
		s.tainted = false
		b.tally(was, s)
		b.mu.Unlock()
		return
	}
	s.fails++
	if s.fails >= breakerThreshold {
		if !s.open {
			b.events.Emit("breaker.open", telemetry.A("node", node))
			if s.tainted {
				b.events.Emit("breaker.quarantine", telemetry.A("node", node))
				quarantined = b.quarantine
			}
		}
		s.open = true
		s.skips = breakerCooldown
	}
	b.tally(was, s)
	b.mu.Unlock()
	if quarantined != nil {
		quarantined(node)
	}
}

// ReportCorrupt records a corruption verdict against the node: a failure
// that additionally taints it. A tainted node whose circuit opens is
// quarantined — excluded from replica placement — until a successful
// half-open probe rehabilitates it. Plain delivery failures never taint, so
// lossy-but-honest nodes are circuit-broken (reads route around them) but
// keep receiving copies.
func (b *Breaker) ReportCorrupt(node string) {
	var quarantined func(string)
	b.mu.Lock()
	s := b.state(node)
	was := s.isQuarantined()
	if !s.tainted && s.open {
		// Already open for loss; the corruption verdict upgrades it to
		// quarantine without a fresh open transition.
		b.events.Emit("breaker.quarantine", telemetry.A("node", node))
		quarantined = b.quarantine
	}
	s.tainted = true
	b.tally(was, s)
	b.mu.Unlock()
	if quarantined != nil {
		quarantined(node)
	}
	b.Report(node, false)
}

// Quarantined reports whether the node is excluded from replica placement:
// circuit-open and corruption-tainted. While no node is, it takes no lock.
func (b *Breaker) Quarantined(node string) bool {
	if b.quarantined.Load() == 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.nodes[node]
	return s != nil && s.isQuarantined()
}

// Unquarantine is the operator override for a false or stale corruption
// verdict: it clears the node's taint and closes its circuit so the node
// rejoins placement and routing immediately, instead of waiting out
// cooldown for a half-open probe. The quarantine hook fires (placement
// changed, caches must invalidate) and breaker.unquarantine is logged. It
// reports whether the node was in fact quarantine-tainted.
func (b *Breaker) Unquarantine(node string) bool {
	b.mu.Lock()
	s := b.nodes[node]
	if s == nil || !s.tainted {
		b.mu.Unlock()
		return false
	}
	was := s.isQuarantined()
	s.tainted = false
	s.open = false
	s.fails = 0
	s.skips = 0
	b.tally(was, s)
	b.events.Emit("breaker.unquarantine", telemetry.A("node", node))
	hook := b.quarantine
	b.mu.Unlock()
	if hook != nil {
		hook(node)
	}
	return true
}

// Open reports whether the node's circuit is currently open.
func (b *Breaker) Open(node string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.nodes[node]
	return s != nil && s.open
}

// QuarantinedNodes lists the nodes currently excluded from placement
// (open + tainted), sorted.
func (b *Breaker) QuarantinedNodes() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for name, s := range b.nodes {
		if s.isQuarantined() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Reset clears all recorded health state.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nodes = make(map[string]*breakerState)
	b.quarantined.Store(0)
}
