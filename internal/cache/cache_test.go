package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheGetPutLRU(t *testing.T) {
	c := New[string](Config{Capacity: 2, Shards: 1, Seed: 1})
	var evicted []string
	setOnEvict(c, func(k string) { evicted = append(evicted, k) })

	c.Put("a", "1")
	c.Put("b", "2")
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v; want 1, true", v, ok)
	}
	// "a" is now most-recent; inserting "c" must evict "b".
	c.Put("c", "3")
	if _, ok := c.Get("b"); ok {
		t.Fatalf("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != "1" {
		t.Fatalf("a should survive: got %q, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != "3" {
		t.Fatalf("c should be present: got %q, %v", v, ok)
	}
	if want := []string{"b"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted = %v; want %v", evicted, want)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d; want 1", st.Evictions)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("Hits/Misses = %d/%d; want 3/1", st.Hits, st.Misses)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := New[int](Config{Capacity: 2, Shards: 1})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: no eviction
	if c.Stats().Evictions != 0 {
		t.Fatalf("refresh must not evict")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) = %d; want 10", v)
	}
}

func TestCacheInvalidateKey(t *testing.T) {
	c := New[int](Config{Capacity: 4})
	c.Put("a", 1)
	c.Invalidate("a")
	if _, ok := c.Get("a"); ok {
		t.Fatalf("a should be invalidated")
	}
	if c.Stats().Invalidations != 1 {
		t.Fatalf("Invalidations = %d; want 1", c.Stats().Invalidations)
	}
	// Invalidating an absent key is a quiet no-op.
	c.Invalidate("missing")
	if c.Stats().Invalidations != 1 {
		t.Fatalf("absent-key invalidate must not count")
	}
}

func TestCacheBumpGenerationInvalidatesAll(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	c.BumpGeneration()
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d should be stale after bump", i)
		}
	}
	// New writes after the bump are live.
	c.Put("fresh", 42)
	if v, ok := c.Get("fresh"); !ok || v != 42 {
		t.Fatalf("post-bump Put should stick: %d, %v", v, ok)
	}
}

func TestCacheDoFillsEveryConcurrentMiss(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	const callers = 8
	var fills atomic.Int64
	entered := make(chan struct{}, callers)
	release := make(chan struct{})
	results := make([]int, callers)
	outcomes := make([]Outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, o, err := c.Do("hot", func() (int, error) {
				fills.Add(1)
				entered <- struct{}{}
				<-release
				return 100 + i, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], outcomes[i] = v, o
		}(i)
	}
	// Hold every fill open until all callers are inside one. The timeout
	// turns a cache that parks callers behind another's fill into a
	// failure below instead of a hang.
	timeout := time.After(5 * time.Second)
wait:
	for n := 0; n < callers; n++ {
		select {
		case <-entered:
		case <-timeout:
			break wait
		}
	}
	close(release)
	wg.Wait()

	if got := fills.Load(); got != callers {
		t.Fatalf("fill ran %d times; want %d (one per concurrent miss)", got, callers)
	}
	for i, v := range results {
		if v != 100+i || outcomes[i] != Filled {
			t.Fatalf("caller %d got %d (%v); want its own fill's %d", i, v, outcomes[i], 100+i)
		}
	}
	if v, ok := c.Get("hot"); !ok || v < 100 || v >= 100+callers {
		t.Fatalf("cache holds %d, %v; want one of the fills' values", v, ok)
	}
}

func TestCacheDoErrorNotCached(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	boom := errors.New("boom")
	_, _, err := c.Do("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatalf("error result must not be cached")
	}
	// A later successful fill works.
	v, o, err := c.Do("k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 || o != Filled {
		t.Fatalf("retry fill: %d, %v, %v", v, o, err)
	}
}

// TestCacheDoBytesIsDo: DoBytes serves and fills the entry Do uses for the
// same key spelled as a string, does not keep the caller's bytes, and a hit
// allocates nothing.
func TestCacheDoBytesIsDo(t *testing.T) {
	c := New[int](Config{Capacity: 64, Seed: 5})
	key := []byte("reader/42")
	v, o, err := c.DoBytes(key, func() (int, error) { return 7, nil })
	if err != nil || v != 7 || o != Filled {
		t.Fatalf("fill: %d, %v, %v", v, o, err)
	}
	copy(key, "XXXXXX") // the cached key is not the caller's buffer
	if v, ok := c.Get("reader/42"); !ok || v != 7 {
		t.Fatalf("Get after DoBytes fill = %d, %v", v, ok)
	}
	c.Put("other/1", 9)
	other := []byte("other/1")
	if v, o, _ := c.DoBytes(other, func() (int, error) { return 0, errors.New("filled") }); v != 9 || o != Hit {
		t.Fatalf("DoBytes on a Put key = %d, %v", v, o)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if shardFor(c, k) != shardFor(c, []byte(k)) {
			t.Fatalf("%q: bytes and string land on different shards", k)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		c.DoBytes(other, func() (int, error) { return 0, nil })
	}); got != 0 {
		t.Fatalf("DoBytes hit: %v allocs, want 0", got)
	}
	c.BumpGeneration()
	if _, o, _ := c.DoBytes(other, func() (int, error) { return 1, nil }); o != Filled {
		t.Fatalf("DoBytes after a generation bump: %v, want Filled", o)
	}
}

func TestCacheInvalidateDuringFillNotStored(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	inFill := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do("k", func() (int, error) {
			close(inFill)
			<-release
			return 1, nil
		})
		if err != nil || v != 1 {
			t.Errorf("Do = %d, %v", v, err)
		}
	}()
	<-inFill
	// Invalidate while the fill is in flight: the caller still gets its
	// value, but the possibly-stale result must not land in the cache.
	c.Invalidate("k")
	close(release)
	<-done
	if _, ok := c.Get("k"); ok {
		t.Fatalf("invalidated-during-fill result must not be cached")
	}
}

func TestCacheBumpDuringFillNotStored(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	inFill := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Do("k", func() (int, error) {
			close(inFill)
			<-release
			return 1, nil
		})
	}()
	<-inFill
	c.BumpGeneration()
	close(release)
	<-done
	if _, ok := c.Get("k"); ok {
		t.Fatalf("fill started before generation bump must not be cached after it")
	}
}

func TestNilCacheIsSafeAndDisabled(t *testing.T) {
	var c *Cache[int]
	if New[int](Config{Capacity: 0}) != nil {
		t.Fatalf("Capacity 0 must yield nil cache")
	}
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatalf("nil cache must always miss")
	}
	c.Invalidate("a")
	c.BumpGeneration()
	c.SetTelemetry(nil, "x")
	if c.Len() != 0 {
		t.Fatalf("nil Len = %d", c.Len())
	}
	if (c.Stats() != Stats{}) {
		t.Fatalf("nil Stats = %+v", c.Stats())
	}
	v, o, err := c.Do("a", func() (int, error) { return 9, nil })
	if err != nil || v != 9 || o != Filled {
		t.Fatalf("nil Do = %d, %v, %v", v, o, err)
	}
}

// shardKeys returns nShards slices of keys, one per shard of a cache built
// with (shards, seed), each holding per keys that map to that shard.
func shardKeys(t *testing.T, shards int, seed int64, per int) [][]string {
	t.Helper()
	probe := New[int](Config{Capacity: shards, Shards: shards, Seed: seed})
	out := make([][]string, shards)
	for i := 0; len(outIncomplete(out, per)) > 0 && i < 1_000_000; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := shardFor(probe, k)
		for si, sh := range probe.shards {
			if sh == s && len(out[si]) < per {
				out[si] = append(out[si], k)
			}
		}
	}
	for si, ks := range out {
		if len(ks) < per {
			t.Fatalf("could not find %d keys for shard %d", per, si)
		}
	}
	return out
}

func outIncomplete(out [][]string, per int) []int {
	var missing []int
	for i, ks := range out {
		if len(ks) < per {
			missing = append(missing, i)
		}
	}
	return missing
}

// TestCacheEvictionOrderDeterministicAcrossRuns drives the same serial
// access sequence through two identically configured caches and requires
// byte-identical eviction logs.
func TestCacheEvictionOrderDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		c := New[int](Config{Capacity: 16, Shards: 4, Seed: 21})
		var log []string
		setOnEvict(c, func(k string) { log = append(log, k) })
		for i := 0; i < 400; i++ {
			c.Put(fmt.Sprintf("key-%d", i%60), i)
			if i%3 == 0 {
				c.Get(fmt.Sprintf("key-%d", (i*7)%60))
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatalf("workload produced no evictions; broaden it")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("eviction order differs across runs:\n%v\n%v", a, b)
	}
}

// TestCacheEvictionOrderShardedWorkers1vs8 is the ISSUE 5 determinism
// criterion: per-shard eviction order is a pure function of that shard's
// access sequence, so partitioning keys by shard across 1 vs 8 goroutines
// yields identical per-shard eviction logs.
func TestCacheEvictionOrderShardedWorkers1vs8(t *testing.T) {
	const (
		shards = 8
		seed   = 5
		perKey = 12 // keys per shard; shard capacity is smaller, forcing evictions
		capTot = 8 * 4
	)
	keys := shardKeys(t, shards, seed, perKey)

	run := func(workers int) [][]string {
		c := New[int](Config{Capacity: capTot, Shards: shards, Seed: seed})
		logs := make([][]string, shards)
		var mu sync.Mutex
		shardIdx := make(map[string]int)
		for si, ks := range keys {
			for _, k := range ks {
				shardIdx[k] = si
			}
		}
		setOnEvict(c, func(k string) {
			mu.Lock()
			si := shardIdx[k]
			logs[si] = append(logs[si], k)
			mu.Unlock()
		})
		drive := func(si int) {
			for round := 0; round < 3; round++ {
				for _, k := range keys[si] {
					c.Put(k, round)
					c.Get(keys[si][(round*5)%perKey])
				}
			}
		}
		if workers == 1 {
			for si := 0; si < shards; si++ {
				drive(si)
			}
		} else {
			var wg sync.WaitGroup
			for si := 0; si < shards; si++ {
				wg.Add(1)
				go func(si int) { defer wg.Done(); drive(si) }(si)
			}
			wg.Wait()
		}
		return logs
	}

	serial := run(1)
	parallel := run(8)
	any := false
	for _, l := range serial {
		if len(l) > 0 {
			any = true
		}
	}
	if !any {
		t.Fatalf("workload produced no evictions; broaden it")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("per-shard eviction order differs between 1 and 8 workers:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// TestCacheRaceHammer exercises every mutating path concurrently; run
// under -race it is the CI cache race check.
func TestCacheRaceHammer(t *testing.T) {
	c := New[int](Config{Capacity: 64, Shards: 8, Seed: 3})
	setOnEvict(c, func(string) {})
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	const opsPer = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("k%d", (i*7+w)%97)
				switch i % 7 {
				case 0:
					c.Put(k, i)
				case 1, 2, 3:
					c.Get(k)
				case 4:
					_, _, _ = c.Do(k, func() (int, error) { return i, nil })
				case 5:
					c.Invalidate(k)
				default:
					if i%101 == 0 {
						c.BumpGeneration()
					} else {
						c.Len()
						c.Stats()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}

// TestCacheFillNeverOutlivesInvalidate races fills against a writer that
// moves a version on and then invalidates the key, the order a store
// follows. Readers fill with the version they see; once a round is quiet
// the cache must miss or hold the last version written. Run under -race.
func TestCacheFillNeverOutlivesInvalidate(t *testing.T) {
	c := New[int64](Config{Capacity: 8, Shards: 2, Seed: 7})
	var version atomic.Int64
	const (
		rounds  = 200
		writes  = 20
		readers = 4
	)
	for round := 0; round < rounds; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, _, _ = c.Do("k", func() (int64, error) {
						v := version.Load()
						runtime.Gosched() // widen the read-to-put window
						return v, nil
					})
				}
			}()
		}
		for i := 0; i < writes; i++ {
			version.Add(1)
			c.Invalidate("k")
			runtime.Gosched()
		}
		close(stop)
		wg.Wait()
		if v, ok := c.Get("k"); ok && v != version.Load() {
			t.Fatalf("round %d: cache holds version %d after the last write made %d", round, v, version.Load())
		}
	}
}

func TestCacheShardCapBounds(t *testing.T) {
	// Shards > Capacity is clamped so every shard holds at least one entry.
	c := New[int](Config{Capacity: 3, Shards: 16})
	if got := len(c.shards); got != 3 {
		t.Fatalf("shards = %d; want clamped to 3", got)
	}
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() > 3 {
		t.Fatalf("Len = %d; want <= 3", c.Len())
	}
}

func TestCacheSeedChangesShardAssignment(t *testing.T) {
	a := New[int](Config{Capacity: 64, Shards: 8, Seed: 1})
	b := New[int](Config{Capacity: 64, Shards: 8, Seed: 99})
	diff := 0
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		var ai, bi int
		for si, sh := range a.shards {
			if shardFor(a, k) == sh {
				ai = si
			}
		}
		for si, sh := range b.shards {
			if shardFor(b, k) == sh {
				bi = si
			}
		}
		if ai != bi {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("seed had no effect on shard assignment")
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{Hit: "hit", Filled: "fill"}
	for o, want := range cases {
		if o.String() != want {
			t.Fatalf("%d.String() = %q; want %q", o, o.String(), want)
		}
	}
}

func TestHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Fatalf("empty HitRate should be 0")
	}
	if got := (Stats{Hits: 3, Misses: 1}).HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v; want 0.75", got)
	}
}

// shardFor is the shard a key lands on.
func shardFor[V any, K string | []byte](c *Cache[V], key K) *shard[V] {
	s, _ := shardOf(c, key)
	return s
}

// referenceCache is the map-and-list LRU this package shipped before its
// shards moved onto slabs and key logs, kept as the oracle
// TestCacheMatchesReference replays random operations against: the same
// shard function, capacity split, generation tags, shard fences and Stats,
// one heap node and one map entry per resident key. It is serial (no locks
// or atomics): the oracle drives it from one goroutine.
type referenceCache[V any] struct {
	shards        []*refShard[V]
	seed          int64
	gen           uint64
	evicted       []string
	hits, misses  int64
	evictions     int64
	invalidations int64
}

type refEntry[V any] struct {
	key        string
	val        V
	gen        uint64
	prev, next *refEntry[V]
}

type refShard[V any] struct {
	entries    map[string]*refEntry[V]
	head, tail *refEntry[V]
	cap        int
	fence      uint64
}

func newReference[V any](cfg Config) *referenceCache[V] {
	if cfg.Shards < 1 {
		cfg.Shards = defaultShards
	}
	cfg.Shards = min(cfg.Shards, cfg.Capacity)
	c := &referenceCache[V]{shards: make([]*refShard[V], cfg.Shards), seed: cfg.Seed}
	per, extra := cfg.Capacity/cfg.Shards, cfg.Capacity%cfg.Shards
	for i := range c.shards {
		capi := per
		if i < extra {
			capi++
		}
		c.shards[i] = &refShard[V]{entries: make(map[string]*refEntry[V]), cap: capi}
	}
	return c
}

func (c *referenceCache[V]) shardOf(key string) *refShard[V] {
	return c.shards[keyHash(c.seed, key)%uint64(len(c.shards))]
}

func (c *referenceCache[V]) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Invalidations: c.invalidations}
}

func (c *referenceCache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		n += len(s.entries)
	}
	return n
}

func (c *referenceCache[V]) Get(key string) (V, bool) {
	v, ok, _ := c.lookup(c.shardOf(key), key, c.gen)
	return v, ok
}

func (c *referenceCache[V]) lookup(s *refShard[V], key string, gen uint64) (V, bool, uint64) {
	e, ok := s.entries[key]
	if ok && e.gen != gen {
		s.remove(e)
		ok = false
	}
	if !ok {
		c.misses++
		var zero V
		return zero, false, s.fence
	}
	s.moveToFront(e)
	c.hits++
	return e.val, true, s.fence
}

func (c *referenceCache[V]) Put(key string, val V) {
	c.put(c.shardOf(key), key, val, c.gen, unfenced)
}

func (c *referenceCache[V]) put(s *refShard[V], key string, val V, gen, fence uint64) {
	if c.gen != gen || s.fence > fence {
		return
	}
	if e, ok := s.entries[key]; ok {
		e.val, e.gen = val, gen
		s.moveToFront(e)
		return
	}
	if len(s.entries) >= s.cap {
		c.evicted = append(c.evicted, s.tail.key)
		c.evictions++
		s.remove(s.tail)
	}
	e := &refEntry[V]{key: key, val: val, gen: gen}
	s.entries[key] = e
	s.pushFront(e)
}

func (c *referenceCache[V]) Invalidate(key string) {
	s := c.shardOf(key)
	s.fence++
	if e, ok := s.entries[key]; ok {
		s.remove(e)
		c.invalidations++
	}
}

func (c *referenceCache[V]) BumpGeneration() {
	c.gen++
	c.invalidations++
}

func (c *referenceCache[V]) Do(key string, fill func() (V, error)) (V, Outcome, error) {
	gen, s := c.gen, c.shardOf(key)
	v, ok, fence := c.lookup(s, key, gen)
	if ok {
		return v, Hit, nil
	}
	v, err := fill()
	if err == nil {
		c.put(s, key, v, gen, fence)
	}
	return v, Filled, err
}

// order lists each shard's resident keys from most to least recently used.
func (c *referenceCache[V]) order() [][]string {
	out := make([][]string, len(c.shards))
	for si, s := range c.shards {
		for e := s.head; e != nil; e = e.next {
			out[si] = append(out[si], e.key)
		}
	}
	return out
}

func (s *refShard[V]) pushFront(e *refEntry[V]) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *refShard[V]) unlink(e *refEntry[V]) {
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
}

func (s *refShard[V]) remove(e *refEntry[V]) {
	s.unlink(e)
	delete(s.entries, e.key)
}

func (s *refShard[V]) moveToFront(e *refEntry[V]) {
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// order lists each shard's resident keys from most to least recently used.
func (c *Cache[V]) order() [][]string {
	out := make([][]string, len(c.shards))
	for si, s := range c.shards {
		s.mu.Lock()
		for i := s.head; i != noEntry; i = s.at(i).next {
			out[si] = append(out[si], string(s.keyBytes(i)))
		}
		s.mu.Unlock()
	}
	return out
}

// logged sums the bytes the shards' key logs hold, live and dead: it drops
// only when a log is compacted.
func (c *Cache[V]) logged() int {
	n := 0
	for _, s := range c.shards {
		n += s.keys.logged
	}
	return n
}

// TestCacheMatchesReference replays seeded random sequences of Get, Put, Do,
// DoBytes, Invalidate and BumpGeneration through the cache and the
// reference LRU: fills that fail, fills overtaken by an Invalidate of their
// shard or a generation bump, empty keys and keys longer than a key-log
// chunk. Every value, outcome, error, Stats snapshot, Len, per-shard LRU
// order and the eviction log must agree, and the key logs must compact.
func TestCacheMatchesReference(t *testing.T) {
	long := string(bytes.Repeat([]byte("L"), keyChunkMax+100))
	compactions := 0
	for _, cfg := range []Config{
		{Capacity: 1, Shards: 1, Seed: 1},
		{Capacity: 7, Shards: 1, Seed: 2},
		{Capacity: 24, Shards: 3, Seed: 3},
		{Capacity: 64, Shards: 8, Seed: 4},
		{Capacity: 200, Shards: 2, Seed: 5},
		{Capacity: 1000, Seed: 6},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("cap%d-shards%d-seed%d", cfg.Capacity, cfg.Shards, seed)
			rng := rand.New(rand.NewSource(seed))
			c, ref := New[int](cfg), newReference[int](cfg)
			var evicted []string
			setOnEvict(c, func(k string) { evicted = append(evicted, k) })
			keys := make([]string, 2*cfg.Capacity+20)
			for i := range keys {
				keys[i] = fmt.Sprintf("%s/%d", strings.Repeat("k", rng.Intn(40)), i)
			}
			keys[0], keys[1] = "", long+"/1"
			pick := func() string { return keys[rng.Intn(len(keys))] }
			errFill := errors.New("fill failed")
			// overtake returns a fill for key that, a third of the time,
			// first runs an invalidation on the same cache as the one
			// filling: the fill is then overtaken by it.
			overtake := func(inv func(string), bump func(), key string, v int, fail bool) func() (int, error) {
				mode := rng.Intn(6)
				other := pick()
				return func() (int, error) {
					switch mode {
					case 0:
						inv(key)
					case 1:
						inv(other)
					case 2:
						bump()
					}
					if fail {
						return 0, errFill
					}
					return v, nil
				}
			}
			lastLogged := 0
			for step := 0; step < 6000; step++ {
				key, v := pick(), rng.Intn(1000)
				var got, want [3]any
				switch op := rng.Intn(20); {
				case op < 6:
					gv, gok := c.Get(key)
					wv, wok := ref.Get(key)
					got, want = [3]any{gv, gok}, [3]any{wv, wok}
				case op < 9:
					c.Put(key, v)
					ref.Put(key, v)
				case op < 15:
					fail := rng.Intn(8) == 0
					seedFill := rng.Int63()
					rng.Seed(seedFill)
					cf := overtake(c.Invalidate, c.BumpGeneration, key, v, fail)
					rng.Seed(seedFill)
					rf := overtake(ref.Invalidate, ref.BumpGeneration, key, v, fail)
					var gv, wv int
					var gout, wout Outcome
					var gerr, werr error
					if op < 12 {
						gv, gout, gerr = c.Do(key, cf)
					} else {
						gv, gout, gerr = c.DoBytes([]byte(key), cf)
					}
					wv, wout, werr = ref.Do(key, rf)
					got, want = [3]any{gv, gout, gerr}, [3]any{wv, wout, werr}
				case op < 19:
					c.Invalidate(key)
					ref.Invalidate(key)
				default:
					c.BumpGeneration()
					ref.BumpGeneration()
				}
				if got != want {
					t.Fatalf("%s step %d key %q: got %v, reference %v", name, step, key, got, want)
				}
				if c.Stats() != ref.Stats() || c.Len() != ref.Len() {
					t.Fatalf("%s step %d: Stats %+v Len %d, reference %+v Len %d", name, step, c.Stats(), c.Len(), ref.Stats(), ref.Len())
				}
				if l := c.logged(); l < lastLogged {
					compactions++
				}
				lastLogged = c.logged()
				if step%97 == 0 && !reflect.DeepEqual(c.order(), ref.order()) {
					t.Fatalf("%s step %d: LRU order\n%v\nreference\n%v", name, step, c.order(), ref.order())
				}
			}
			if !reflect.DeepEqual(c.order(), ref.order()) {
				t.Fatalf("%s: final LRU order\n%v\nreference\n%v", name, c.order(), ref.order())
			}
			if !reflect.DeepEqual(evicted, ref.evicted) {
				t.Fatalf("%s: eviction order\n%q\nreference\n%q", name, evicted, ref.evicted)
			}
		}
	}
	if compactions == 0 {
		t.Fatalf("no key log compacted; lengthen the sequences")
	}
}

// TestCacheFillAllocatesNothing pins the fill path: a Do and a DoBytes fill
// into a warm shard — one whose slab has a free entry — allocate nothing,
// and so does an evicting fill into a full shard. The key log's chunk
// growth and compactions are amortised over many fills, below one
// allocation a fill (AllocsPerRun's average); what the pin rules out is
// anything per fill, as an entry node or a key string was. No sync.Pool is
// involved, so the pin holds under -race too.
func TestCacheFillAllocatesNothing(t *testing.T) {
	c := New[[]byte](Config{Capacity: 64, Shards: 1, Seed: 9})
	val := []byte("value")
	fill := func() ([]byte, error) { return val, nil }
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("reader-%02d/epoch", i)
		c.Put(keys[i], val)
	}
	key := []byte(keys[0])
	for name, fillOnce := range map[string]func(){
		"Do":      func() { c.Do(keys[0], fill) },
		"DoBytes": func() { c.DoBytes(key, fill) },
	} {
		if got := testing.AllocsPerRun(100, func() {
			c.Invalidate(keys[0])
			fillOnce()
		}); got != 0 {
			t.Errorf("%s fill into a warm shard: %v allocs, want 0", name, got)
		}
	}
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		i++
		c.DoBytes(strconv.AppendInt(append(key[:0], "fresh-"...), int64(i), 10), fill)
	}); got != 0 {
		t.Errorf("evicting DoBytes fill: %v allocs, want 0", got)
	}
}

// setOnEvict installs fn as c's eviction hook.
func setOnEvict[V any](c *Cache[V], fn func(key string)) { c.onEvict.Store(&fn) }
