// Package load supplies the overload-robustness primitives of the
// resilience layer: a deterministic token-bucket admission gate (the DHT's
// per-node server-side gate, with a bounded queue) and an EWMA health
// tracker that ranks replicas by observed latency and error/shed rate.
//
// The paper's availability argument assumes replicas can absorb the traffic
// directed at them; a flash crowd on a celebrity profile breaks that
// assumption without taking any node offline. This package makes overload a
// managed condition instead of an emergent collapse: a node's gate sheds
// excess load early and explicitly (ErrShed, classified as FaultOverload by
// the resilience layer), and the tracker steers hedged reads toward
// lightly-loaded healthy replicas — the destination-selection idea of
// sshproxy's HostChecker, fed from the framework's own per-fetch
// observations instead of out-of-band probes.
//
// Determinism contract: nothing here reads a wall clock or draws
// randomness. The gate advances on explicit Tick calls (the experiment's
// simulated clock); queue delays are a pure function of arrival order; EWMA
// scores are pure functions of the observation sequence; Rank breaks ties
// by input order, so two runs with the same seeds produce byte-identical
// selection decisions at any worker count.
package load

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"godosn/internal/telemetry"
)

// ErrShed reports that the admission gate refused an operation because its
// token bucket was empty and its queue full: the node is offered more load
// than it is configured to serve. Shedding is deliberate — it is cheaper
// than adding one more request to an overloaded queue and failing slower.
var ErrShed = errors.New("load: admission queue full, operation shed")

// waitPerSlot is the simulated delay the gate charges per queue position.
const waitPerSlot = 10 * time.Millisecond

// GateConfig parameterizes the admission gate.
type GateConfig struct {
	// PerTick is the number of tokens added per Tick — the steady-state
	// operation budget per simulated time step — and the most the bucket
	// holds (<= 0 disables the gate: Admit always passes free).
	PerTick int
	// QueueDepth is the number of operations absorbed when the bucket is
	// empty; each is admitted with a queueing delay of its position times
	// waitPerSlot, and consumes a token from a future tick. Beyond it,
	// Admit sheds with ErrShed.
	QueueDepth int
}

// Gate is a deterministic token-bucket admission controller. It is safe for
// concurrent use; determinism under concurrency holds because token
// consumption commutes — only arrival *order* assigns queue delays, and
// deterministic experiments drive operations in a fixed order.
type Gate struct {
	cfg GateConfig

	mu     sync.Mutex
	tokens int // may go negative: queued ops borrow from future ticks
}

// NewGate builds a gate; a nil gate (or PerTick <= 0) admits everything.
func NewGate(cfg GateConfig) *Gate {
	if cfg.PerTick <= 0 {
		return nil
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	return &Gate{cfg: cfg, tokens: cfg.PerTick}
}

// Tick advances the simulated clock one step: PerTick tokens are added,
// capped at PerTick. Nil-safe.
func (g *Gate) Tick() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tokens = min(g.tokens+g.cfg.PerTick, g.cfg.PerTick)
}

// Admit asks to start one operation. A token admits it immediately; an
// empty bucket admits it with a queueing delay (charged to the operation's
// simulated latency by the caller) while queue slots remain; otherwise the
// operation is shed with ErrShed. Nil-safe: a nil gate admits free.
func (g *Gate) Admit() (time.Duration, error) {
	if g == nil {
		return 0, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tokens > 0 {
		g.tokens--
		return 0, nil
	}
	qpos := -g.tokens + 1
	if qpos > g.cfg.QueueDepth {
		return 0, fmt.Errorf("%w: queue depth %d", ErrShed, g.cfg.QueueDepth)
	}
	g.tokens-- // borrow a future token; Tick repays it
	return time.Duration(qpos) * waitPerSlot, nil
}

// Outcome classifies one replica observation for the health tracker.
type Outcome int

// Observation outcomes.
const (
	// OutcomeOK is a served request: a value, or an honest not-found.
	OutcomeOK Outcome = iota
	// OutcomeError is a delivery or integrity failure.
	OutcomeError
	// OutcomeShed is an explicit overload refusal — weighted harder than a
	// plain error, because a shedding node advertises it cannot take more.
	OutcomeShed
)

// TrackerConfig parameterizes the EWMA health tracker. The zero value
// disables tracking (NewTracker returns nil).
type TrackerConfig struct {
	// Alpha is the EWMA smoothing factor in (0, 1]: the weight of the
	// newest observation. <= 0 disables the tracker.
	Alpha float64
	// ErrorPenalty scales how strongly the failure EWMA inflates a node's
	// score (default 4: a node failing every observation scores 1+4 = 5x
	// its latency).
	ErrorPenalty float64
	// ShedPenalty scales the shed EWMA's contribution (default 8: backing
	// away from a node that says "stop" matters more than routing around
	// one that merely drops).
	ShedPenalty float64
	// HalfLife rehabilitates idle nodes: every Tick multiplies each node's
	// failure and shed EWMAs by 0.5^(1/HalfLife) and relaxes its latency
	// EWMA toward baseLatencyMS by the same factor, so a demoted node's score
	// halves its distance to baseline every HalfLife ticks even when no
	// probe traffic reaches it — without decay, a flash-crowded replica
	// that sheds hard is ranked last forever, because being ranked last is
	// exactly what starves it of the observations that would clear it.
	// <= 0 disables decay (scores move only on observations).
	HalfLife int
}

// DefaultTrackerConfig returns the standard health-tracking parameters:
// EWMA smoothing 0.3 with a 50-tick rehabilitation half-life.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{Alpha: 0.3, ErrorPenalty: 4, ShedPenalty: 8, HalfLife: 50}
}

// baseLatencyMS seeds an unseen node's latency estimate, in milliseconds,
// so never-tried nodes compete on equal terms with proven-fast ones.
const baseLatencyMS = 10.0

// nodeHealth is one node's EWMA state.
type nodeHealth struct {
	latencyMS float64 // EWMA of observed latency, milliseconds
	failRate  float64 // EWMA of the {0,1} error indicator
	shedRate  float64 // EWMA of the {0,1} shed indicator
}

// Tracker scores nodes by exponentially weighted moving averages of
// observed latency, error rate, and shed rate, and ranks candidate replica
// lists healthiest-first. Lower scores are healthier. It is safe for
// concurrent use.
type Tracker struct {
	cfg   TrackerConfig
	decay float64 // per-tick factor 0.5^(1/HalfLife); 1 = no decay

	mu    sync.Mutex
	nodes map[string]*nodeHealth
	reg   *telemetry.Registry
	obs   *telemetry.Counter
}

// NewTracker builds a tracker; Alpha <= 0 returns nil, and every method is
// nil-safe (a nil tracker observes nothing and ranks as identity).
func NewTracker(cfg TrackerConfig) *Tracker {
	if cfg.Alpha <= 0 {
		return nil
	}
	if cfg.Alpha > 1 {
		cfg.Alpha = 1
	}
	if cfg.ErrorPenalty < 0 {
		cfg.ErrorPenalty = 0
	}
	if cfg.ShedPenalty < 0 {
		cfg.ShedPenalty = 0
	}
	decay := 1.0
	if cfg.HalfLife > 0 {
		decay = math.Pow(0.5, 1/float64(cfg.HalfLife))
	}
	return &Tracker{cfg: cfg, decay: decay, nodes: make(map[string]*nodeHealth)}
}

// Tick applies one step of idle decay (TrackerConfig.HalfLife) to every
// tracked node: failure and shed EWMAs shrink by the per-tick half-life
// factor and the latency EWMA relaxes toward baseLatencyMS, so demotion is
// always temporary — absent fresh evidence, a node's score converges back
// to the unseen-node prior. Nodes are visited in sorted-name order (the
// floating-point updates commute anyway, but determinism is cheap). Nil-
// safe, and a no-op without a half-life.
func (t *Tracker) Tick() {
	if t == nil || t.decay >= 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.nodes))
	for name := range t.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := t.nodes[name]
		h.failRate *= t.decay
		h.shedRate *= t.decay
		h.latencyMS = baseLatencyMS + (h.latencyMS-baseLatencyMS)*t.decay
		if t.obs != nil {
			t.reg.Gauge("load_health_score_" + name).Set(t.scoreLocked(h))
		}
	}
}

// SetTelemetry mirrors per-node health scores into reg as
// load_health_score_<node> gauges (updated on every observation) plus a
// load_observations_total counter. nil detaches. Nil-safe.
func (t *Tracker) SetTelemetry(reg *telemetry.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg = reg
	if reg == nil {
		t.obs = nil
		return
	}
	t.obs = reg.Counter("load_observations_total")
}

// Observe folds one replica interaction into the node's health state.
// Sheds carry no meaningful latency (the refusal is immediate), so only
// served and errored observations move the latency EWMA.
func (t *Tracker) Observe(node string, latency time.Duration, outcome Outcome) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.nodes[node]
	if h == nil {
		h = &nodeHealth{latencyMS: baseLatencyMS}
		t.nodes[node] = h
	}
	a := t.cfg.Alpha
	if outcome != OutcomeShed {
		h.latencyMS = (1-a)*h.latencyMS + a*float64(latency)/float64(time.Millisecond)
	}
	fail, shed := 0.0, 0.0
	switch outcome {
	case OutcomeError:
		fail = 1
	case OutcomeShed:
		shed = 1
	}
	h.failRate = (1-a)*h.failRate + a*fail
	h.shedRate = (1-a)*h.shedRate + a*shed
	if t.obs != nil {
		t.obs.Inc()
		t.reg.Gauge("load_health_score_" + node).Set(t.scoreLocked(h))
	}
}

// scoreLocked computes a node's health score: its latency estimate inflated
// by its failure and shed EWMAs. Lower is healthier.
func (t *Tracker) scoreLocked(h *nodeHealth) float64 {
	return h.latencyMS * (1 + t.cfg.ErrorPenalty*h.failRate + t.cfg.ShedPenalty*h.shedRate)
}

// Score returns a node's current health score (the unseen-node prior when
// never observed); lower is healthier. 0 for a nil tracker.
func (t *Tracker) Score(node string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.nodes[node]
	if h == nil {
		return baseLatencyMS
	}
	return t.scoreLocked(h)
}

// Rank orders candidate replicas healthiest-first: ascending score, ties
// broken by input position (stable), so replicas the tracker cannot tell
// apart keep the overlay's preference order. Nil-safe: a nil tracker
// returns names unchanged. The input slice is never mutated.
func (t *Tracker) Rank(names []string) []string {
	if t == nil || len(names) < 2 {
		return names
	}
	type cand struct {
		name  string
		score float64
	}
	cands := make([]cand, len(names))
	t.mu.Lock()
	for i, name := range names {
		score := baseLatencyMS
		if h := t.nodes[name]; h != nil {
			score = t.scoreLocked(h)
		}
		cands[i] = cand{name: name, score: score}
	}
	t.mu.Unlock()
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
	out := make([]string, len(names))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// NodeScore is one node's health snapshot.
type NodeScore struct {
	// Node is the node name.
	Node string
	// Score is the current health score (lower = healthier).
	Score float64
	// LatencyMS is the latency EWMA in milliseconds.
	LatencyMS float64
	// FailRate is the error-indicator EWMA in [0, 1].
	FailRate float64
	// ShedRate is the shed-indicator EWMA in [0, 1].
	ShedRate float64
}

// Snapshot returns every tracked node's health state, sorted by name —
// deterministic experiment and operator introspection. Nil for a nil
// tracker.
func (t *Tracker) Snapshot() []NodeScore {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeScore, 0, len(t.nodes))
	for name, h := range t.nodes {
		out = append(out, NodeScore{
			Node: name, Score: t.scoreLocked(h),
			LatencyMS: h.latencyMS, FailRate: h.failRate, ShedRate: h.shedRate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
