package dht

import (
	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

// This file holds the DHT's one resolution order, key → successor root,
// which Store, Lookup, ReplicasFor and every key of a batch go through:
//
//  1. a learned ownership interval (ownership.go) — free, and it answers
//     every key hashing into a span an earlier batch walk proved;
//  2. the route cache — free, for keys a walk resolved before;
//  3. the iterative O(log n) finger walk, whose result fills the route
//     cache and, on a batch walk, teaches the ownership cache.
//
// Coherence model: a memoized root can go stale only when the ring or the
// placement filter changes, so both memos are invalidated together
// (bumpRoutes) on Join, Leave, SetPlacementFilter, any Heal pass that
// repaired at least one copy, and on InvalidateRoutes (the resilience layer
// calls it when a breaker quarantines a node). Both fence their fills: a
// walk that started before an invalidation lands in neither. Replica sets
// are always recomputed from the live ring at use time — only the root id
// is memoized — so a hit after a benign ring-adjacent change still lands on
// current successors.

var _ overlay.RouteCached = (*DHT)(nil)

// resolveTelemetry is the DHT's own shard of each resolution counter.
type resolveTelemetry struct {
	learned *telemetry.Counter // keys an ownership interval answered
	walks   *telemetry.Counter // findSuccessor walks started
}

// resolveRoot resolves key's successor root in the resolution order above.
// An interval or route-cache answer charges nothing to the frame's trace
// (that is the point); a walk charges every routing step to it. learn
// marks a batch's walk, which teaches the ownership cache its interval;
// single-key walks only fill the route cache. When routing happens under a
// span, a "cache" child records how the resolution was served: "learned",
// or the route cache's "hit"/"fill".
func (d *DHT) resolveRoot(f *opFrame, route *telemetry.Span, origin simnet.NodeID, key string, kid uint64, learn bool) (uint64, error) {
	if root, ok := d.ownership.lookup(kid); ok {
		if t := d.tel.Load(); t != nil {
			t.learned.Inc()
		}
		route.Child("cache").End("learned")
		return root, nil
	}
	walk := func() (uint64, error) {
		fence := d.ownership.fence()
		root, err := d.findSuccessor(f, origin, kid)
		if err == nil && learn {
			d.ownership.learn(kid, root, fence)
		}
		return root, err
	}
	if d.routes == nil {
		return walk()
	}
	root, outcome, err := d.routes.Do(key, walk)
	route.Child("cache").End(outcome.String())
	return root, err
}

// InvalidateRoutes implements overlay.RouteCached: drop every memoized
// route and learned interval (e.g. after a quarantine changes effective
// placement).
func (d *DHT) InvalidateRoutes() {
	d.bumpRoutes()
}

// RouteCacheStats returns the route cache's counters (zero Stats when the
// cache is disabled).
func (d *DHT) RouteCacheStats() cache.Stats {
	return d.routes.Stats()
}

// SetTelemetry mirrors the route cache's counters into reg under the
// "dht_route_cache" prefix, counts resolutions into
// "dht_resolve_learned_total" (keys an ownership interval answered) and
// "dht_resolve_walks_total" (findSuccessor walks started, including those
// the origin answers from its own successor without an RPC), and the
// server-side gate shed counters under "dht_gate_sheds" (gate.go). The
// resolution counters are off until this is called; nil reg turns them
// off again. Safe to call with the route cache or the gates disabled.
func (d *DHT) SetTelemetry(reg *telemetry.Registry) {
	d.routes.SetTelemetry(reg, "dht_route_cache")
	d.gates.setTelemetry(reg)
	if reg == nil {
		d.tel.Store(nil)
		return
	}
	d.tel.Store(&resolveTelemetry{
		learned: reg.Counter("dht_resolve_learned_total").Shard(),
		walks:   reg.Counter("dht_resolve_walks_total").Shard(),
	})
}
