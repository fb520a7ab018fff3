package dht

import (
	"fmt"
	"sort"
	"sync"

	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/load"
	"godosn/internal/telemetry"
)

// This file wires server-side admission control: a per-node load.Gate in
// front of the data-plane RPC kinds (store, fetch, and their batch forms),
// so a node sheds by its own policy instead of only by the simnet's
// simulated capacity, protecting each node from every client. A shed
// surfaces as load.ErrShed through the RPC error chain, which the
// resilience layer already classifies as FaultOverload — retryable against
// another replica, never quarantined.
//
// Routing (find-successor) and digest traffic is exempt: an overloaded node
// must still answer "who owns this key" and anti-entropy digests, or
// congestion would masquerade as membership loss. This mirrors real systems
// keeping their control plane responsive under data-plane pressure.
//
// Determinism: token consumption commutes (load.Gate), per-node shed counts
// depend only on how many data requests reach each node per tick window —
// worker-count independent under serial fan-out — and Tick advances gates
// in sorted node order.

// nodeGates is the per-node gate set; a nil *nodeGates admits everything.
type nodeGates struct {
	gates map[simnet.NodeID]*load.Gate
	order []simnet.NodeID // sorted, for deterministic ticking

	mu      sync.Mutex
	sheds   map[simnet.NodeID]int64
	total   *telemetry.Counter
	perNode map[simnet.NodeID]*telemetry.Counter
}

// newNodeGates builds one gate per node; nil when the config is disabled.
func newNodeGates(cfg load.GateConfig, names []simnet.NodeID) *nodeGates {
	if cfg.PerTick <= 0 {
		return nil
	}
	g := &nodeGates{
		gates: make(map[simnet.NodeID]*load.Gate, len(names)),
		order: append([]simnet.NodeID(nil), names...),
		sheds: make(map[simnet.NodeID]int64),
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i] < g.order[j] })
	for _, id := range g.order {
		g.gates[id] = load.NewGate(cfg)
	}
	return g
}

// admit charges one data request against id's gate: free or queued (the
// queue delay lands on the request's trace like propagation delay), or shed
// with an error wrapping load.ErrShed. Nil-safe.
func (g *nodeGates) admit(id simnet.NodeID, tr *simnet.Trace) error {
	if g == nil {
		return nil
	}
	delay, err := g.gates[id].Admit()
	if err != nil {
		g.mu.Lock()
		g.sheds[id]++
		total, per := g.total, g.perNode[id]
		g.mu.Unlock()
		if total != nil {
			total.Inc()
		}
		if per != nil {
			per.Inc()
		}
		return fmt.Errorf("dht: node %s admission: %w", id, err)
	}
	tr.Latency += delay
	return nil
}

// tick refills every gate, in sorted node order. Nil-safe.
func (g *nodeGates) tick() {
	if g == nil {
		return
	}
	for _, id := range g.order {
		g.gates[id].Tick()
	}
}

// shedCounts copies the per-node shed counters (always non-nil, so results
// built from it compare equal across runs whether or not gates are on).
func (g *nodeGates) shedCounts() map[string]int64 {
	out := make(map[string]int64)
	if g == nil {
		return out
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, n := range g.sheds {
		out[string(id)] = n
	}
	return out
}

// setTelemetry mirrors shed accounting into reg: one aggregate counter plus
// a per-node counter each, created eagerly so snapshots carry the same
// instrument set whether or not anything shed. Nil-safe.
func (g *nodeGates) setTelemetry(reg *telemetry.Registry) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if reg == nil {
		g.total, g.perNode = nil, nil
		return
	}
	g.total = reg.Counter("dht_gate_sheds_total")
	g.perNode = make(map[simnet.NodeID]*telemetry.Counter, len(g.order))
	for _, id := range g.order {
		g.perNode[id] = reg.Counter("dht_gate_sheds_" + string(id))
	}
}

// Tick implements overlay.Ticker: it advances every node's admission gate
// one tick window (sorted node order). No-op when Config.NodeGate is
// disabled.
func (d *DHT) Tick() {
	d.gates.tick()
}

// NodeSheds returns each node's server-side shed count (empty map when
// gates are disabled or nothing shed).
func (d *DHT) NodeSheds() map[string]int64 {
	return d.gates.shedCounts()
}

// NodeShedTotal sums NodeSheds.
func (d *DHT) NodeShedTotal() int64 {
	var total int64
	for _, n := range d.gates.shedCounts() {
		total += n
	}
	return total
}
