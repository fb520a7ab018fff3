package simnet

import (
	"errors"
	"fmt"
	"time"
)

// This file implements per-node service capacity: a deterministic model of
// overload as a first-class fault. Every other fault in this package is
// binary — a node is reachable or it isn't — but a flash crowd on a
// celebrity profile produces a third state: the node is up, honest, and
// simply cannot absorb the traffic directed at it. A capacity-configured
// node serves up to PerTick requests per tick window at full speed, absorbs
// the next QueueDepth requests with a deterministic queueing delay
// (position × ServiceTime, charged to the trace like propagation delay),
// and sheds everything beyond that with ErrOverloaded — an explicit,
// immediate refusal, distinct from loss (the request never arrived) and
// corruption (the reply lies).
//
// Determinism: the model draws no randomness. Within a tick window the
// queue position of a request is its arrival index at the node, so a serial
// experiment loop reproduces byte-identical delays and shed decisions from
// the seed alone; experiments advance windows themselves with TickCapacity.

// ErrOverloaded reports that a request was refused because the destination
// node's admission queue was full: the node is online and honest but cannot
// absorb the offered load. The request was not served and had no side
// effects — retrying is safe, and a retry directed at a different replica
// (or after backing off) may succeed.
var ErrOverloaded = errors.New("simnet: node overloaded, request shed")

// CapacityConfig caps one node's per-tick service rate.
type CapacityConfig struct {
	// PerTick is the number of requests the node serves at full speed per
	// tick window (<= 0 removes the cap).
	PerTick int
	// QueueDepth is the number of requests absorbed beyond PerTick per
	// window; each is served after a queueing delay of its queue position
	// (1-based) times ServiceTime. 0 means every request beyond PerTick is
	// shed immediately.
	QueueDepth int
	// ServiceTime is the per-position queueing delay. <= 0 defaults to the
	// network's BaseLatency.
	ServiceTime time.Duration
}

// capacityState is one node's admission bookkeeping for the current tick
// window. served is guarded by the node's loadMu.
type capacityState struct {
	cfg    CapacityConfig
	served int // requests admitted (fast + queued) this window
}

// OverloadStats aggregates the network's overload accounting since the last
// ResetTotals.
type OverloadStats struct {
	// Queued is the number of requests served after a queueing delay.
	Queued int
	// Sheds is the number of requests refused with ErrOverloaded.
	Sheds int
	// PeakQueueDepth is the deepest queue position any request was served
	// from.
	PeakQueueDepth int
	// QueueDelay is the total queueing delay charged.
	QueueDelay time.Duration
}

// SetCapacity configures (or, with PerTick <= 0, removes) a node's service
// capacity. Unregistered nodes are rejected, mirroring SetOnline.
func (n *Network) SetCapacity(id NodeID, cfg CapacityConfig) error {
	s, err := n.node(id)
	if err != nil {
		return err
	}
	if cfg.PerTick <= 0 {
		s.capacity.Store(nil)
		return nil
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = n.cfg.BaseLatency
	}
	s.capacity.Store(&capacityState{cfg: cfg})
	return nil
}

// TickCapacity opens a new tick window: every capacity-configured node's
// served count resets, so the next PerTick requests are again served at
// full speed, and the network's tick clock advances one step. Experiments
// drive it from the same loop that ticks fault schedules; registered
// OnTick hooks (windowed telemetry, scenario annotation) ride the same
// clock and fire after the window opens, outside the network lock.
func (n *Network) TickCapacity() {
	for _, s := range n.table() {
		if c := s.capacity.Load(); c != nil {
			s.loadMu.Lock()
			c.served = 0
			s.loadMu.Unlock()
		}
	}
	n.mu.Lock()
	n.tick++
	tick := n.tick
	hooks := n.onTick
	n.mu.Unlock()
	for _, fn := range hooks {
		fn(tick)
	}
}

// OnTick registers a hook invoked after every TickCapacity advance with the
// new tick number (1-based). Hooks run outside the network lock, in
// registration order — the plumbing that lets the windowed telemetry
// collector ride the simnet tick clock instead of a wall clock.
func (n *Network) OnTick(fn func(tick int)) {
	if fn == nil {
		return
	}
	n.mu.Lock()
	n.onTick = append(n.onTick, fn)
	n.mu.Unlock()
}

// Overload returns the overload accounting since the last ResetTotals,
// merged over the nodes that kept it: counts and delay sum, the peak is the
// deepest any node saw.
func (n *Network) Overload() OverloadStats {
	var sum OverloadStats
	for _, s := range n.table() {
		s.loadMu.Lock()
		o := s.overload
		s.loadMu.Unlock()
		sum.Queued += o.Queued
		sum.Sheds += o.Sheds
		sum.QueueDelay += o.QueueDelay
		if o.PeakQueueDepth > sum.PeakQueueDepth {
			sum.PeakQueueDepth = o.PeakQueueDepth
		}
	}
	return sum
}

// admitCapacity applies the destination's capacity model to one request.
// It returns the queueing delay to charge, or ErrOverloaded when the
// request is shed.
func (n *Network) admitCapacity(dst *nodeState, st *capacityState) (time.Duration, error) {
	tel := n.tel.Load()
	dst.loadMu.Lock()
	defer dst.loadMu.Unlock()
	st.served++
	if st.served <= st.cfg.PerTick {
		return 0, nil
	}
	qpos := st.served - st.cfg.PerTick
	if qpos > st.cfg.QueueDepth {
		st.served-- // shed requests occupy no service slot
		dst.overload.Sheds++
		if tel != nil {
			tel.sheds.Inc()
		}
		return 0, fmt.Errorf("%w: %s", ErrOverloaded, dst.id)
	}
	delay := time.Duration(qpos) * st.cfg.ServiceTime
	dst.overload.Queued++
	dst.overload.QueueDelay += delay
	if qpos > dst.overload.PeakQueueDepth {
		dst.overload.PeakQueueDepth = qpos
	}
	if tel != nil {
		tel.queued.Inc()
		tel.queueDelay.ObserveDuration(delay)
		tel.queueDepth.SetMax(float64(qpos))
	}
	return delay, nil
}
