// Package cache implements the framework's hot-path read acceleration: a
// generic, race-safe, sharded LRU with generation-based invalidation and a
// fenced fill path: Do runs the caller's fill on a miss and caches its value
// only if neither the generation nor the key's shard fence moved meanwhile.
//
// Real DOSN workloads are heavily skewed toward a small hot set of popular
// profiles (LibreSocial reports read-mostly, Zipf-like access in its P2P
// OSN deployment; DECENT identifies object-read latency as the dominant
// cost of decentralized enforcement), and the paper motivates hybrid
// encryption precisely because asymmetric operations are too expensive to
// pay per read. Three instances of this cache thread through the stack: the
// resilient KV's verified-value cache, the privacy layer's envelope-key
// cache, and the hybrid overlay's per-node social caches. Experiment E21
// measures what the first two buy, beside the DHT's route memo, which takes
// a Config and reports Stats but is not a Cache (overlay/dht/routecache.go):
// it is never invalidated per key, so it keys an exact LRU by ring id. The
// two instances that hold stored values, the verified-value and social
// caches, share one coherence rule: a store invalidates its key in every
// copy, so no cache serves a superseded value as current.
//
// Determinism contract: shard assignment is a pure function of (seed, key),
// and each shard's eviction order is a pure function of the sequence of
// operations that reached that shard. Callers that partition keys across
// goroutines by shard therefore observe identical eviction orders at any
// parallelism level (TestCacheEvictionOrderShardedWorkers1vs8); serial
// callers observe identical orders across runs.
//
// A nil *Cache is valid and disabled: Get always misses, Put and the
// invalidation calls are no-ops, and Do simply invokes the fill function —
// call sites need no enabled/disabled branching.
package cache

import (
	"sync"
	"sync/atomic"

	"godosn/internal/telemetry"
)

// Config parameterizes one cache instance.
type Config struct {
	// Capacity is the total entry budget across all shards (split evenly;
	// each shard holds at least one entry). Capacity <= 0 disables the
	// cache: New returns nil, and every method on a nil cache is a safe
	// no-op.
	Capacity int
	// Shards is the number of independently locked LRU segments (default
	// 8). More shards cut lock contention on concurrent hot paths at the
	// cost of a slightly less global LRU approximation.
	Shards int
	// Seed perturbs the key → shard mapping deterministically, so two
	// caches with different seeds spread the same keys differently while
	// each remains reproducible run to run.
	Seed int64
}

// Enabled reports whether this configuration describes a live cache.
func (c Config) Enabled() bool { return c.Capacity > 0 }

// DefaultShards is used when Config.Shards is unset.
const DefaultShards = 8

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits counts Get/Do calls served from a resident entry.
	Hits int64
	// Misses counts Get/Do calls that found no usable entry.
	Misses int64
	// Evictions counts entries displaced by capacity pressure.
	Evictions int64
	// Invalidations counts entries dropped by Invalidate plus whole-cache
	// generation bumps (each bump counts once).
	Invalidations int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Outcome classifies how one Do call was served.
type Outcome int

// Do outcomes.
const (
	// Hit: served from a resident entry, fill not invoked.
	Hit Outcome = iota
	// Filled: this caller invoked the fill function.
	Filled
)

// String renders the outcome as a span/event tag.
func (o Outcome) String() string {
	if o == Hit {
		return "hit"
	}
	return "fill"
}

// entry is one resident value on a shard's LRU list.
type entry[V any] struct {
	key        string
	val        V
	gen        uint64
	prev, next *entry[V]
}

// shard is one independently locked LRU segment.
type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	// head is most-recently used, tail least-recently used.
	head, tail *entry[V]
	cap        int
	// fence counts Invalidate calls on this shard. Do reads it with its
	// lookup and caches the fill only if it has not moved since: exact for
	// the invalidated key, conservative for the keys sharing its shard.
	fence uint64
}

// unfenced is the fence a plain Put passes: no shard's count exceeds it.
const unfenced = ^uint64(0)

// Cache is a sharded LRU over string keys. All methods are safe for
// concurrent use and safe on a nil receiver (disabled cache).
type Cache[V any] struct {
	shards []*shard[V]
	seed   int64
	gen    atomic.Uint64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	tel atomic.Pointer[cacheTelemetry] // nil until SetTelemetry

	evictMu sync.Mutex
	onEvict func(key string)
}

// cacheTelemetry holds resolved registry counters mirroring Stats.
type cacheTelemetry struct {
	hits, misses, evictions, invalidations *telemetry.Counter
}

// New creates a cache, or returns nil (a valid, disabled cache) when the
// config's Capacity is not positive.
func New[V any](cfg Config) *Cache[V] {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards > cfg.Capacity {
		cfg.Shards = cfg.Capacity
	}
	c := &Cache[V]{
		shards: make([]*shard[V], cfg.Shards),
		seed:   cfg.Seed,
	}
	per := cfg.Capacity / cfg.Shards
	extra := cfg.Capacity % cfg.Shards
	for i := range c.shards {
		capi := per
		if i < extra {
			capi++
		}
		// The map grows with demand: a cache sized for a worst case that
		// holds a few entries costs only those entries.
		c.shards[i] = &shard[V]{entries: make(map[string]*entry[V]), cap: capi}
	}
	return c
}

// SetTelemetry mirrors the cache's counters into reg under the given metric
// prefix (e.g. "dht_route_cache" yields "dht_route_cache_hits_total").
// Counters record deltas from this call on. Nil-safe; reg nil disables.
func (c *Cache[V]) SetTelemetry(reg *telemetry.Registry, prefix string) {
	if c == nil {
		return
	}
	if reg == nil {
		c.tel.Store(nil)
		return
	}
	c.tel.Store(&cacheTelemetry{
		hits:          reg.Counter(prefix + "_hits_total"),
		misses:        reg.Counter(prefix + "_misses_total"),
		evictions:     reg.Counter(prefix + "_evictions_total"),
		invalidations: reg.Counter(prefix + "_invalidations_total"),
	})
}

// SetOnEvict installs a hook observing capacity evictions in order, called
// with the evicted key while no shard lock is held. Test instrumentation
// for the eviction-order determinism contract. Nil-safe.
func (c *Cache[V]) SetOnEvict(fn func(key string)) {
	if c == nil {
		return
	}
	c.evictMu.Lock()
	c.onEvict = fn
	c.evictMu.Unlock()
}

// count bumps one counter pair (local atomic + registry mirror).
func (c *Cache[V]) count(local *atomic.Int64, pick func(*cacheTelemetry) *telemetry.Counter) {
	local.Add(1)
	if t := c.tel.Load(); t != nil {
		pick(t).Inc()
	}
}

// Stats returns a snapshot of the counters. Nil-safe (zero Stats).
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Len returns the number of resident entries, including any invalidated by
// a generation bump but not yet lazily purged. Nil-safe (0).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// shardOf maps a key to its shard (ShardIndex). A key's bytes land where
// its string does.
func shardOf[V any, K string | []byte](c *Cache[V], key K) *shard[V] {
	return c.shards[ShardIndex(c.seed, key, len(c.shards))]
}

// ShardIndex maps a key to one of n shards: FNV-1a over the key, perturbed
// by the seed — a pure function of (seed, key), so placement and therefore
// per-shard eviction order is reproducible across runs. It is the shard
// function of every Cache and of the DHT's route memo, which keeps a
// Config's shard layout without being a Cache.
func ShardIndex[K string | []byte](seed int64, key K, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ uint64(seed)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Get returns the cached value for key. Entries from an older generation
// are purged and miss. Nil-safe (always a miss, uncounted).
func (c *Cache[V]) Get(key string) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	v, ok, _ := lookup(c, shardOf(c, key), key, c.gen.Load())
	return v, ok
}

// lookup is Get on key's shard s under generation gen. It also returns the
// shard's fence, read under the same lock, for a fill's put to check. A
// key's bytes find its entry without being copied into a string.
func lookup[V any, K string | []byte](c *Cache[V], s *shard[V], key K, gen uint64) (V, bool, uint64) {
	s.mu.Lock()
	fence := s.fence
	e, ok := s.entries[string(key)]
	if ok && e.gen != gen {
		s.remove(e)
		ok = false
	}
	if !ok {
		s.mu.Unlock()
		c.count(&c.misses, func(t *cacheTelemetry) *telemetry.Counter { return t.misses })
		var zero V
		return zero, false, fence
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.count(&c.hits, func(t *cacheTelemetry) *telemetry.Counter { return t.hits })
	return v, true, fence
}

// Put inserts or refreshes key under the current generation, evicting the
// shard's least-recently-used entry on overflow. Nil-safe (no-op).
func (c *Cache[V]) Put(key string, val V) {
	if c == nil {
		return
	}
	c.put(shardOf(c, key), key, val, c.gen.Load(), unfenced)
}

// put inserts key=val on its shard s tagged with gen, dropping the write
// silently when the cache has moved past gen or s has been invalidated past
// fence — the fences that keep a fill started before an invalidation from
// resurrecting stale data after it.
func (c *Cache[V]) put(s *shard[V], key string, val V, gen, fence uint64) {
	if c.gen.Load() != gen {
		return
	}
	var evicted string
	overflow := false
	s.mu.Lock()
	// Re-check under the shard lock: a concurrent bump between the check
	// above and acquiring the lock must still win. A bump taken after this
	// point invalidates the entry lazily via its gen tag; an Invalidate
	// taken after it removes the entry.
	if c.gen.Load() != gen || s.fence > fence {
		s.mu.Unlock()
		return
	}
	if e, ok := s.entries[key]; ok {
		e.val = val
		e.gen = gen
		s.moveToFront(e)
	} else {
		// A full shard (it never holds more than cap) displaces exactly its
		// least-recently-used entry, whose node carries the incoming key.
		var e *entry[V]
		if overflow = len(s.entries) >= s.cap; overflow {
			e = s.tail
			evicted = e.key
			s.remove(e)
		} else {
			e = &entry[V]{}
		}
		e.key, e.val, e.gen = key, val, gen
		s.entries[key] = e
		s.pushFront(e)
	}
	s.mu.Unlock()
	if overflow {
		c.count(&c.evictions, func(t *cacheTelemetry) *telemetry.Counter { return t.evictions })
		c.evictMu.Lock()
		fn := c.onEvict
		c.evictMu.Unlock()
		if fn != nil {
			fn(evicted)
		}
	}
}

// Invalidate drops key's entry and advances its shard's fence, so no fill
// in flight on that shard is cached — a lookup racing a store can complete,
// but its possibly-stale value never lands. Nil-safe (no-op).
func (c *Cache[V]) Invalidate(key string) {
	if c == nil {
		return
	}
	s := shardOf(c, key)
	s.mu.Lock()
	s.fence++
	e, ok := s.entries[key]
	if ok {
		s.remove(e)
	}
	s.mu.Unlock()
	if ok {
		c.count(&c.invalidations, func(t *cacheTelemetry) *telemetry.Counter { return t.invalidations })
	}
}

// BumpGeneration invalidates every resident entry at once (lazily: entries
// are purged as they are next touched) and fences all in-flight fills —
// results computed against the old world never land. Counted as one
// invalidation. Nil-safe (no-op).
func (c *Cache[V]) BumpGeneration() {
	if c == nil {
		return
	}
	c.gen.Add(1)
	c.count(&c.invalidations, func(t *cacheTelemetry) *telemetry.Counter { return t.invalidations })
}

// Do returns the cached value for key, or runs fill on a miss and caches a
// successful result — unless the generation was bumped, or key's shard was
// invalidated, while fill ran. Concurrent misses on one key each run their
// own fill and get their own value. Fill errors are returned and never
// cached. On a nil cache Do simply invokes fill. The returned Outcome says
// how this call was served.
func (c *Cache[V]) Do(key string, fill func() (V, error)) (V, Outcome, error) {
	return do(c, key, fill)
}

// DoBytes is Do for a key held as bytes, which it does not retain: a hit
// builds no string, and only a successful fill copies the key into one to
// cache it under. The entry is the one Do would use for string(key).
func (c *Cache[V]) DoBytes(key []byte, fill func() (V, error)) (V, Outcome, error) {
	return do(c, key, fill)
}

func do[V any, K string | []byte](c *Cache[V], key K, fill func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := fill()
		return v, Filled, err
	}
	gen, s := c.gen.Load(), shardOf(c, key)
	v, ok, fence := lookup(c, s, key, gen)
	if ok {
		return v, Hit, nil
	}
	v, err := fill()
	if err == nil {
		c.put(s, string(key), v, gen, fence)
	}
	return v, Filled, err
}

// ---- intrusive LRU list (call with shard lock held) ----

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) remove(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(s.entries, e.key)
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
}
