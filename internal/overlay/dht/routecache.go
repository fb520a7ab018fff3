package dht

import (
	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

// This file wires the hot-path route cache: key → successor-root resolution
// is memoized so repeat lookups of hot keys skip the iterative O(log n)
// finger walk entirely (zero routing RPCs, zero simulated routing latency).
//
// Coherence model: a cached root can go stale only when the ring or the
// placement filter changes, so the cache generation is bumped on Join,
// Leave, SetPlacementFilter, any Heal pass that repaired at least one copy,
// and on InvalidateRoutes (the resilience layer calls it when a breaker
// quarantines a node). Replica sets are always recomputed from the live
// ring at use time — only the root id is cached — so a hit after a benign
// ring-adjacent change still lands on current successors.

var _ overlay.RouteCached = (*DHT)(nil)

// resolveRoot resolves key's successor root, through the route cache when
// one is configured. A cache hit charges nothing to the frame's trace (that
// is the point); a miss runs the iterative lookup and caches a successful
// result unless the cache was invalidated mid-fill. When routing happens
// under a span, a "cache" child records how the resolution was served.
func (d *DHT) resolveRoot(f *opFrame, route *telemetry.Span, origin simnet.NodeID, key string, kid uint64) (uint64, error) {
	if d.routes == nil {
		return d.findSuccessor(f, origin, kid)
	}
	root, outcome, err := d.routes.Do(key, func() (uint64, error) {
		return d.findSuccessor(f, origin, kid)
	})
	csp := route.Child("cache")
	csp.End(outcome.String())
	return root, err
}

// InvalidateRoutes implements overlay.RouteCached: drop every memoized
// route (e.g. after a quarantine changes effective placement). No-op
// without a route cache.
func (d *DHT) InvalidateRoutes() {
	d.bumpRoutes()
}

// RouteCacheStats returns the route cache's counters (zero Stats when the
// cache is disabled).
func (d *DHT) RouteCacheStats() cache.Stats {
	return d.routes.Stats()
}

// SetTelemetry mirrors the route cache's counters into reg under the
// "dht_route_cache" prefix and the server-side gate shed counters under
// "dht_gate_sheds" (gate.go). Safe to call with either disabled.
func (d *DHT) SetTelemetry(reg *telemetry.Registry) {
	d.routes.SetTelemetry(reg, "dht_route_cache")
	d.gates.setTelemetry(reg)
}
