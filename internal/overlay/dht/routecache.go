package dht

import (
	"sync"
	"sync/atomic"

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
	root, outcome, err := d.routes.do(key, kid, walk)
	route.Child("cache").End(outcome.String())
	return root, err
}

// routeMemo is the route cache: an exact LRU from a key's ring id to its
// successor root, which depends on the ring id alone. It keeps cache.Cache's
// contract for this one use — a Config's capacity split and FNV(seed, key)
// shards (cache.ShardIndex), generation tags, a fill fenced against
// BumpGeneration, and the same Stats and telemetry counters — so each
// shard's eviction order, and every counter, is the one a
// cache.Cache[uint64] keyed by the key string would show
// (TestRouteMemoMatchesCache). It is not a cache.Cache because it never
// needs one's string keys: nothing invalidates a route per key, so it has
// no shard fences, and a slab indexed by ring id serves a hit without a
// string-keyed map and evicts without allocating. A nil *routeMemo is the
// disabled cache: resolveRoot walks, and bump, stats and setTelemetry do
// nothing.
type routeMemo struct {
	shards        []memoShard
	seed          int64
	gen           atomic.Uint64
	invalidations atomic.Int64
	tel           atomic.Pointer[memoTelemetry] // nil until setTelemetry
}

// memoTelemetry mirrors Stats into registry counters.
type memoTelemetry struct {
	hits, misses, evictions, invalidations *telemetry.Counter
}

// memoShard is one independently locked LRU segment. Its entries live in
// slab, linked most- to least-recently used from head to tail, with
// entries a stale lookup dropped on a free list through next; index is an
// open-addressing, linear-probe table of slab numbers plus one (zero is the
// empty slot) with backward-shift delete, as store.go's slots. Both grow
// with demand up to the shard's capacity, and a shard at capacity reuses
// its tail's entry, so a full memo allocates nothing.
type memoShard struct {
	mu               sync.Mutex
	slab             []memoEntry
	index            []int32
	head, tail, free int32 // slab numbers; noEntry ends each chain
	n, cap           int   // live entries, budget
	hits, misses     int64
	evictions        int64
	_                [64]byte // keeps neighbouring shards' locks off one cache line
}

// memoEntry is one memoized route: kid's root as of generation gen.
type memoEntry struct {
	kid, root, gen uint64
	prev, next     int32
}

const noEntry = -1

// newRouteMemo builds the memo cfg describes, or nil when it is disabled,
// splitting the capacity over the shards exactly as cache.New does.
func newRouteMemo(cfg cache.Config) *routeMemo {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Shards < 1 {
		cfg.Shards = cache.DefaultShards
	}
	cfg.Shards = min(cfg.Shards, cfg.Capacity)
	m := &routeMemo{shards: make([]memoShard, cfg.Shards), seed: cfg.Seed}
	per, extra := cfg.Capacity/cfg.Shards, cfg.Capacity%cfg.Shards
	for i := range m.shards {
		s := &m.shards[i]
		s.head, s.tail, s.free = noEntry, noEntry, noEntry
		s.cap = per
		if i < extra {
			s.cap++
		}
	}
	return m
}

// do returns kid's memoized root, or runs walk and memoizes its root unless
// a generation bump landed meanwhile. key picks the shard; kid is its ring
// id. Errors are returned and never memoized.
func (m *routeMemo) do(key string, kid uint64, walk func() (uint64, error)) (uint64, cache.Outcome, error) {
	gen := m.gen.Load()
	s := &m.shards[0]
	if len(m.shards) > 1 {
		s = &m.shards[cache.ShardIndex(m.seed, key, len(m.shards))]
	}
	if root, ok := m.get(s, kid, gen); ok {
		return root, cache.Hit, nil
	}
	root, err := walk()
	if err == nil {
		m.put(s, kid, root, gen)
	}
	return root, cache.Filled, err
}

// get is do's lookup: an entry from an older generation is dropped and
// misses.
func (m *routeMemo) get(s *memoShard, kid, gen uint64) (uint64, bool) {
	s.mu.Lock()
	slot, i := s.find(kid)
	if i != noEntry && s.slab[i].gen != gen {
		s.drop(slot, i)
		s.slab[i].next, s.free = s.free, i
		i = noEntry
	}
	if i == noEntry {
		s.misses++
		s.mu.Unlock()
		if t := m.tel.Load(); t != nil {
			t.misses.Inc()
		}
		return 0, false
	}
	s.moveToFront(i)
	root := s.slab[i].root
	s.hits++
	s.mu.Unlock()
	if t := m.tel.Load(); t != nil {
		t.hits.Inc()
	}
	return root, true
}

// put memoizes kid → root under gen, displacing the shard's
// least-recently-used entry when it is full, unless the memo has moved past
// gen: a walk over the old ring never lands.
func (m *routeMemo) put(s *memoShard, kid, root, gen uint64) {
	if m.gen.Load() != gen {
		return
	}
	evicted := false
	s.mu.Lock()
	// Re-check under the lock: a bump between the check above and the lock
	// must still win; one after it invalidates the entry through its tag.
	if m.gen.Load() != gen {
		s.mu.Unlock()
		return
	}
	if _, i := s.find(kid); i != noEntry {
		s.slab[i].root, s.slab[i].gen = root, gen
		s.moveToFront(i)
		s.mu.Unlock()
		return
	}
	var i int32
	switch {
	case s.n >= s.cap:
		i = s.tail
		slot, _ := s.find(s.slab[i].kid)
		s.drop(slot, i)
		evicted = true
		s.evictions++
	case s.free != noEntry:
		i, s.free = s.free, s.slab[s.free].next
	default:
		i = int32(len(s.slab))
		s.slab = append(s.slab, memoEntry{})
	}
	s.slab[i] = memoEntry{kid: kid, root: root, gen: gen}
	s.pushFront(i)
	s.n++
	if 4*s.n > 3*len(s.index) {
		s.growIndex()
	} else {
		s.seat(i)
	}
	s.mu.Unlock()
	if t := m.tel.Load(); evicted && t != nil {
		t.evictions.Inc()
	}
}

// bump invalidates every memoized route at once (lazily, through the
// generation tags) and fences every walk in flight. Counted as one
// invalidation. Nil-safe.
func (m *routeMemo) bump() {
	if m == nil {
		return
	}
	m.gen.Add(1)
	m.invalidations.Add(1)
	if t := m.tel.Load(); t != nil {
		t.invalidations.Inc()
	}
}

// stats sums the shards' counters. Nil-safe (zero Stats).
func (m *routeMemo) stats() cache.Stats {
	if m == nil {
		return cache.Stats{}
	}
	st := cache.Stats{Invalidations: m.invalidations.Load()}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	return st
}

// setTelemetry mirrors the counters into reg as cache.Cache.SetTelemetry
// does, counting from this call on. Nil-safe; reg nil disables.
func (m *routeMemo) setTelemetry(reg *telemetry.Registry, prefix string) {
	if m == nil {
		return
	}
	if reg == nil {
		m.tel.Store(nil)
		return
	}
	m.tel.Store(&memoTelemetry{
		hits:          reg.Counter(prefix + "_hits_total"),
		misses:        reg.Counter(prefix + "_misses_total"),
		evictions:     reg.Counter(prefix + "_evictions_total"),
		invalidations: reg.Counter(prefix + "_invalidations_total"),
	})
}

// ---- slab and index (call with the shard lock held) ----

// home is kid's first index probe. Ring ids are uniform, but the memo's
// callers may not hash, so the id is mixed first.
func home(kid uint64, mask uint32) uint32 {
	return uint32((kid*0x9e3779b97f4a7c15)>>32) & mask
}

// find returns the index slot and slab number of kid's entry, or noEntry
// twice.
func (s *memoShard) find(kid uint64) (slot, i int32) {
	if len(s.index) == 0 {
		return noEntry, noEntry
	}
	mask := uint32(len(s.index) - 1)
	for j := home(kid, mask); ; j = (j + 1) & mask {
		n := s.index[j]
		if n == 0 {
			return noEntry, noEntry
		}
		if s.slab[n-1].kid == kid {
			return int32(j), n - 1
		}
	}
}

// drop takes entry i, filed at index slot, off the list and the index.
func (s *memoShard) drop(slot, i int32) {
	s.unlink(i)
	s.unseat(uint32(slot))
	s.n--
}

// seat files entry i at the first free slot of its probe sequence.
func (s *memoShard) seat(i int32) {
	mask := uint32(len(s.index) - 1)
	j := home(s.slab[i].kid, mask)
	for s.index[j] != 0 {
		j = (j + 1) & mask
	}
	s.index[j] = i + 1
}

// growIndex doubles the index and re-seats every live entry.
func (s *memoShard) growIndex() {
	s.index = make([]int32, max(2*len(s.index), slotsMin))
	for i := s.head; i != noEntry; i = s.slab[i].next {
		s.seat(i)
	}
}

// unseat empties index slot i and closes the gap: each later slot of the
// run moves back when its home lies at or before the gap, so no probe
// sequence is cut and no tombstone is left.
func (s *memoShard) unseat(i uint32) {
	mask := uint32(len(s.index) - 1)
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		h := home(s.slab[s.index[j]-1].kid, mask)
		if (j-h)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

func (s *memoShard) moveToFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

func (s *memoShard) pushFront(i int32) {
	e := &s.slab[i]
	e.prev, e.next = noEntry, s.head
	if s.head != noEntry {
		s.slab[s.head].prev = i
	}
	s.head = i
	if s.tail == noEntry {
		s.tail = i
	}
}

func (s *memoShard) unlink(i int32) {
	e := &s.slab[i]
	if e.prev != noEntry {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next != noEntry {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
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
	return d.routes.stats()
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
	d.routes.setTelemetry(reg, "dht_route_cache")
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
