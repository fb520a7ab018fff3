package dht

import (
	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

// This file holds the DHT's resolution of key → successor root, which
// Store, Lookup, ReplicasFor and every key of a batch go through. A walk
// proves its root's whole Chord segment (pred(R), R] (findSuccessor), and
// the two paths use that in two orders:
//
//   - batches: a learned ownership segment (ownership.go), then the
//     iterative O(log n) finger walk, which teaches the ownership cache the
//     segment it proved;
//   - single-key operations: a learned ownership segment, then the route
//     cache, then the walk, which fills the route cache and teaches
//     nothing.
//
// So the route cache is a single-key memo: batches never read or fill it.
// It is a cache.Cache[uint64] from the key string to its root, which the
// ring id alone decides; nothing invalidates a route per key, only the
// generation bump below.
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
	learned    *telemetry.Counter // keys a learned ownership segment answered
	walks      *telemetry.Counter // findSuccessor walks started
	keyHashes  *telemetry.Counter // key → ring id SHA-256s (DHT.keyID)
	healCopies *telemetry.Counter // copies a heal pass probed (repair.go)
}

// resolveRoot resolves key's successor root in the order above. A learned
// segment or route-cache answer charges nothing to the frame's trace (that
// is the point); a walk charges every routing step to it. learn marks a
// batch's resolution: interval, then a walk that teaches its segment. When
// single-key routing happens under a span, a "cache" child records how the
// resolution was served: "learned", or the route cache's "hit"/"fill".
func (d *DHT) resolveRoot(f *opFrame, route *telemetry.Span, origin simnet.NodeID, key string, kid uint64, learn bool) (uint64, error) {
	if root, ok := d.ownership.lookup(kid); ok {
		if t := d.tel.Load(); t != nil {
			t.learned.Inc()
		}
		route.Child("cache").End("learned")
		return root, nil
	}
	if learn {
		fence := d.ownership.fence()
		root, lo, err := d.findSuccessor(f, origin, kid)
		if err == nil {
			d.ownership.learn(kid, lo, root, fence)
		}
		return root, err
	}
	walk := func() (uint64, error) {
		root, _, err := d.findSuccessor(f, origin, kid)
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
// route and learned segment (e.g. after a quarantine changes effective
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
// "dht_resolve_learned_total" (keys a learned ownership segment answered) and
// "dht_resolve_walks_total" (findSuccessor walks started, including those
// the origin answers from its own successor without an RPC), key hashes
// into "dht_key_hashes_total" (one SHA-256 per key an operation routes or a
// direct write files; none per copy a heal pass scans), the copies heal
// passes probed into "dht_heal_copies_checked_total" (a copy a pass skips on
// its memo's word is not counted: a second pass over an undisturbed ring
// counts 0), and the server-side gate shed counters under "dht_gate_sheds"
// (gate.go). The resolution, hash and heal counters are off until this is
// called; nil reg turns them off again. Safe to call with the route cache or the gates disabled.
func (d *DHT) SetTelemetry(reg *telemetry.Registry) {
	d.routes.SetTelemetry(reg, "dht_route_cache")
	d.gates.setTelemetry(reg)
	if reg == nil {
		d.tel.Store(nil)
		return
	}
	d.tel.Store(&resolveTelemetry{
		learned:    reg.Counter("dht_resolve_learned_total").Shard(),
		walks:      reg.Counter("dht_resolve_walks_total").Shard(),
		keyHashes:  reg.Counter("dht_key_hashes_total").Shard(),
		healCopies: reg.Counter("dht_heal_copies_checked_total").Shard(),
	})
}
