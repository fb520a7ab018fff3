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
// pay per read. Four instances of this cache thread through the stack: the
// DHT's route cache (key → successor root, overlay/dht/routecache.go), the
// resilient KV's verified-value cache, the privacy layer's envelope-key
// cache, and the hybrid overlay's per-node social caches. Experiment E21
// measures what the first three buy. The route cache is only ever bumped
// whole, on a ring or placement change; the two instances that hold stored
// values, the verified-value and social caches, share one coherence rule: a
// store invalidates its key in every copy, so no cache serves a superseded
// value as current.
//
// Layout: a hit and a fill allocate nothing once a shard has grown. Each
// shard keeps its entries in a slab, linked by int32 slab numbers into the
// LRU list and a free list, and grown a block at a time up to the shard's
// capacity, never copied; the cache copies each key's bytes into the
// shard's own key log (append-only chunks, as overlay/dht/store.go keeps
// its records), and an open-addressing index of hash ‖ slab-number slots
// finds an entry from a string or a []byte without building a string. Key
// bytes are immutable once written: a removed key's bytes stay dead in the
// log until dead bytes outweigh the live ones and a chunk, when the live
// keys are copied into fresh chunks and the old chunks are dropped.
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

// defaultShards is used when Config.Shards is unset.
const defaultShards = 8

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

// entry is one slab slot: a resident value, its key's place in the shard's
// key log, and its LRU neighbours — or, on the free list, only next.
type entry[V any] struct {
	val        V
	gen        uint64
	key, klen  uint32 // keyLog location and length
	prev, next int32  // slab numbers; noEntry ends a chain
}

const noEntry = -1

// shard is one independently locked LRU segment. Its entries live in slab,
// in blocks of slabBlock (the last one cut at the shard's capacity), linked
// from head (most recently used) to tail, with removed entries on a free
// list through next; index is an open-addressing, linear-probe table of
// slots, each the top 32 bits of the key's hash and the entry's slab number
// plus one (zero is the empty slot), with backward-shift delete. slab, index
// and keys grow with demand, so a cache sized for a worst case that holds a
// few entries costs only those; a full shard reuses its tail.
type shard[V any] struct {
	mu               sync.Mutex
	slab             [][]entry[V]
	index            []uint64
	keys             keyLog
	head, tail, free int32
	n, cap           int // resident entries, budget
	made             int // slab entries handed out: resident or free
	// fence counts Invalidate calls on this shard. Do reads it with its
	// lookup and caches the fill only if it has not moved since: exact for
	// the invalidated key, conservative for the keys sharing its shard.
	fence uint64
}

// Growth constants: fixed, not tunable. The slab grows a block of
// slabBlock entries at a time and is never copied; the index doubles from
// indexMin slots at 3/4 full; the key log's chunks double from keyChunkMin
// to keyChunkMax bytes. feed-private's 48 envelope-key caches of 8 shards
// hold a few dozen keys per shard, so the first sizes are small. Blocks,
// not a slab that doubles by copying: each doubling drops the slab before,
// which cost feed-private (seed 11) 2 746 B/op against the blocks' 2 703.
const (
	slabBlockLog   = 4
	slabBlock      = 1 << slabBlockLog
	indexMin       = 16
	keyChunkMinLog = 8
	keyChunkSteps  = 6
	keyChunkMin    = 1 << keyChunkMinLog
	keyOffBits     = keyChunkMinLog + keyChunkSteps
	keyChunkMax    = 1 << keyOffBits
)

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

	// onEvict, when set, observes capacity evictions in order, called with
	// a copy of the evicted key under its shard's lock (so it must not call
	// back into the cache): test instrumentation for the eviction-order
	// determinism contract.
	onEvict atomic.Pointer[func(key string)]
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
		cfg.Shards = defaultShards
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
		c.shards[i] = &shard[V]{head: noEntry, tail: noEntry, free: noEntry, cap: capi}
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
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// keyHash is FNV-1a over the key, perturbed by the seed — a pure function
// of (seed, key), so shard placement and therefore per-shard eviction order
// is reproducible across runs. It picks the key's shard (shardOf) and files
// the key in that shard's index.
func keyHash[K string | []byte](seed int64, key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ uint64(seed)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// shardOf returns key's shard and its hash. A key's bytes land where its
// string does.
func shardOf[V any, K string | []byte](c *Cache[V], key K) (*shard[V], uint64) {
	h := keyHash(c.seed, key)
	return c.shards[h%uint64(len(c.shards))], h
}

// Get returns the cached value for key. Entries from an older generation
// are purged and miss. Nil-safe (always a miss, uncounted).
func (c *Cache[V]) Get(key string) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	s, h := shardOf(c, key)
	v, ok, _ := lookup(c, s, key, h, c.gen.Load())
	return v, ok
}

// lookup is Get on key's shard s under generation gen, h being the key's
// hash. It also returns the shard's fence, read under the same lock, for a
// fill's put to check. A key's bytes find its entry without being copied
// into a string.
func lookup[V any, K string | []byte](c *Cache[V], s *shard[V], key K, h, gen uint64) (V, bool, uint64) {
	s.mu.Lock()
	fence := s.fence
	slot, i := find(s, key, h)
	if i != noEntry && s.at(i).gen != gen {
		s.remove(slot, i)
		i = noEntry
	}
	if i == noEntry {
		s.mu.Unlock()
		c.count(&c.misses, func(t *cacheTelemetry) *telemetry.Counter { return t.misses })
		var zero V
		return zero, false, fence
	}
	s.moveToFront(i)
	v := s.at(i).val
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
	s, h := shardOf(c, key)
	put(c, s, key, h, val, c.gen.Load(), unfenced)
}

// put inserts key=val on its shard s tagged with gen, dropping the write
// silently when the cache has moved past gen or s has been invalidated past
// fence — the fences that keep a fill started before an invalidation from
// resurrecting stale data after it. h is the key's hash.
func put[V any, K string | []byte](c *Cache[V], s *shard[V], key K, h uint64, val V, gen, fence uint64) {
	if c.gen.Load() != gen {
		return
	}
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
	_, i := find(s, key, h)
	if i != noEntry {
		s.moveToFront(i)
	} else {
		// A full shard (it never holds more than cap) displaces exactly its
		// least-recently-used entry, whose slot the incoming key then takes
		// off the free list.
		if overflow = s.n >= s.cap; overflow {
			k := s.keyBytes(s.tail)
			if fn := c.onEvict.Load(); fn != nil {
				(*fn)(string(k))
			}
			slot, _ := find(s, k, keyHash(c.seed, k))
			s.remove(slot, s.tail)
		}
		i = s.take()
		*s.at(i) = entry[V]{key: appendKey(&s.keys, key), klen: uint32(len(key))}
		s.pushFront(i)
		s.n++
		if 4*s.n > 3*len(s.index) {
			s.growIndex()
		}
		s.seat(uint64(slotHash(h))<<32 | uint64(i+1))
	}
	e := s.at(i)
	e.val, e.gen = val, gen
	s.mu.Unlock()
	if overflow {
		c.count(&c.evictions, func(t *cacheTelemetry) *telemetry.Counter { return t.evictions })
	}
}

// Invalidate drops key's entry and advances its shard's fence, so no fill
// in flight on that shard is cached — a lookup racing a store can complete,
// but its possibly-stale value never lands. Nil-safe (no-op).
func (c *Cache[V]) Invalidate(key string) {
	if c == nil {
		return
	}
	s, h := shardOf(c, key)
	s.mu.Lock()
	s.fence++
	slot, i := find(s, key, h)
	if i != noEntry {
		s.remove(slot, i)
	}
	s.mu.Unlock()
	if i != noEntry {
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

// DoBytes is Do for a key held as bytes, which it does not retain: neither
// a hit nor a fill builds a string, and a fill copies the key into the
// shard's key log. The entry is the one Do would use for string(key).
func (c *Cache[V]) DoBytes(key []byte, fill func() (V, error)) (V, Outcome, error) {
	return do(c, key, fill)
}

func do[V any, K string | []byte](c *Cache[V], key K, fill func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := fill()
		return v, Filled, err
	}
	gen := c.gen.Load()
	s, h := shardOf(c, key)
	v, ok, fence := lookup(c, s, key, h, gen)
	if ok {
		return v, Hit, nil
	}
	v, err := fill()
	if err == nil {
		put(c, s, key, h, v, gen, fence)
	}
	return v, Filled, err
}

// ---- slab, index and key log (call with the shard lock held) ----

// slotHash is the part of a key's hash its index slot keeps. The shard
// function fixed the hash modulo the shard count, so it is mixed first.
func slotHash(h uint64) uint32 { return uint32((h * 0x9e3779b97f4a7c15) >> 32) }

// find returns the index slot and slab number of key's entry, or noEntry
// twice; h is the key's hash.
func find[V any, K string | []byte](s *shard[V], key K, h uint64) (slot, i int32) {
	if len(s.index) == 0 {
		return noEntry, noEntry
	}
	sh := slotHash(h)
	mask := uint32(len(s.index) - 1)
	for j := sh & mask; ; j = (j + 1) & mask {
		sl := s.index[j]
		if sl == 0 {
			return noEntry, noEntry
		}
		if uint32(sl>>32) == sh {
			n := int32(uint32(sl)) - 1
			if string(s.keyBytes(n)) == string(key) {
				return int32(j), n
			}
		}
	}
}

// take returns a slab entry for a new key: the free list's first, else the
// next never used, adding a block when the last one is full.
func (s *shard[V]) take() int32 {
	if i := s.free; i != noEntry {
		s.free = s.at(i).next
		return i
	}
	if s.made == len(s.slab)*slabBlock {
		s.slab = append(s.slab, make([]entry[V], min(slabBlock, s.cap-s.made)))
	}
	s.made++
	return int32(s.made - 1)
}

// remove takes resident entry i, filed at index slot, off the list and the
// index onto the free list, and lets its key's bytes die in the log.
func (s *shard[V]) remove(slot, i int32) {
	s.unlink(i)
	s.unseat(uint32(slot))
	s.n--
	e := s.at(i)
	s.keys.live -= int(e.klen)
	*e = entry[V]{next: s.free}
	s.free = i
	if s.keys.mostlyDead() {
		s.compactKeys()
	}
}

// compactKeys copies the resident entries' keys into fresh chunks, in LRU
// order, and drops the old chunks.
func (s *shard[V]) compactKeys() {
	old := s.keys
	s.keys = keyLog{}
	for i := s.head; i != noEntry; i = s.at(i).next {
		s.at(i).key = appendKey(&s.keys, old.bytes(s.at(i).key, s.at(i).klen))
	}
}

// at returns slab entry i.
func (s *shard[V]) at(i int32) *entry[V] {
	return &s.slab[i>>slabBlockLog][i&(slabBlock-1)]
}

func (s *shard[V]) keyBytes(i int32) []byte {
	e := s.at(i)
	return s.keys.bytes(e.key, e.klen)
}

// seat places a slot at the first free position of its probe sequence.
func (s *shard[V]) seat(sl uint64) {
	mask := uint32(len(s.index) - 1)
	j := uint32(sl>>32) & mask
	for s.index[j] != 0 {
		j = (j + 1) & mask
	}
	s.index[j] = sl
}

// growIndex doubles the index, re-seating every slot from the hash bits it
// carries.
func (s *shard[V]) growIndex() {
	old := s.index
	s.index = make([]uint64, max(2*len(old), indexMin))
	for _, sl := range old {
		if sl != 0 {
			s.seat(sl)
		}
	}
}

// unseat empties index slot i and closes the gap: each later slot of the
// run moves back when its home lies at or before the gap, so no probe
// sequence is cut and no tombstone is left.
func (s *shard[V]) unseat(i uint32) {
	mask := uint32(len(s.index) - 1)
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		home := uint32(s.index[j]>>32) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

func (s *shard[V]) moveToFront(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

func (s *shard[V]) pushFront(i int32) {
	e := s.at(i)
	e.prev, e.next = noEntry, s.head
	if s.head != noEntry {
		s.at(s.head).prev = i
	}
	s.head = i
	if s.tail == noEntry {
		s.tail = i
	}
}

func (s *shard[V]) unlink(i int32) {
	e := s.at(i)
	if e.prev != noEntry {
		s.at(e.prev).next = e.next
	} else {
		s.head = e.next
	}
	if e.next != noEntry {
		s.at(e.next).prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// keyLog is a shard's key bytes: append-only chunks doubling from
// keyChunkMin to keyChunkMax bytes (a key larger than that gets a chunk of
// its own), addressed by a location that packs the chunk number above a
// keyOffBits offset. Bytes once written are never written again.
type keyLog struct {
	chunks [][]byte
	live   int // bytes of resident keys
	logged int // bytes written into chunks: live plus dead
}

// appendKey copies key into the log and returns its location.
func appendKey[K string | []byte](l *keyLog, key K) uint32 {
	need := len(key)
	last := len(l.chunks) - 1
	// An empty key needs room too: a full chunk's length would not fit
	// the offset bits.
	if last < 0 || cap(l.chunks[last])-len(l.chunks[last]) < max(need, 1) {
		size := keyChunkMin << min(len(l.chunks), keyChunkSteps)
		l.chunks = append(l.chunks, make([]byte, 0, max(size, need)))
		last++
	}
	if last >= 1<<(32-keyOffBits) {
		panic("cache: shard key log over 4 GiB")
	}
	at := uint32(last)<<keyOffBits | uint32(len(l.chunks[last]))
	l.chunks[last] = append(l.chunks[last], key...)
	l.live += need
	l.logged += need
	return at
}

func (l *keyLog) bytes(at, n uint32) []byte {
	off := at & (keyChunkMax - 1)
	return l.chunks[at>>keyOffBits][off : off+n : off+n]
}

// mostlyDead reports whether dead bytes outweigh both the live bytes and
// one full chunk: compacting then keeps the log at or under 2 × live +
// keyChunkMax bytes, and a rewrite's cost under the bytes that died to
// cause it.
func (l *keyLog) mostlyDead() bool {
	dead := l.logged - l.live
	return dead > l.live && dead > keyChunkMax
}
