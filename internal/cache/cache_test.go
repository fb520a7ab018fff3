package cache

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheGetPutLRU(t *testing.T) {
	c := New[string](Config{Capacity: 2, Shards: 1, Seed: 1})
	var evicted []string
	c.SetOnEvict(func(k string) { evicted = append(evicted, k) })

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

func TestCacheDoCoalescesConcurrentMisses(t *testing.T) {
	c := New[int](Config{Capacity: 8})
	var fills atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]int, waiters)
	outcomes := make([]Outcome, waiters)
	// Leader blocks in fill until every waiter has piled on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, o, err := c.Do("hot", func() (int, error) {
			close(started)
			<-release
			fills.Add(1)
			return 7, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0], outcomes[0] = v, o
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, o, err := c.Do("hot", func() (int, error) {
				fills.Add(1)
				return 7, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], outcomes[i] = v, o
		}(i)
	}
	// Give waiters a chance to enqueue, then release the leader. Waiters
	// that arrive after the fill completes are hits, which is also fine —
	// the invariant under test is fills == 1.
	close(release)
	wg.Wait()

	if fills.Load() != 1 {
		t.Fatalf("fill ran %d times; want 1", fills.Load())
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("result[%d] = %d; want 7 (outcome %v)", i, v, outcomes[i])
		}
	}
	if v, ok := c.Get("hot"); !ok || v != 7 {
		t.Fatalf("fill result should be cached: %d, %v", v, ok)
	}
}

func TestCacheDoNeverReusesACallAWaiterHolds(t *testing.T) {
	// A finished call nobody waited on serves the next fill; one a waiter
	// attached to must not, because the waiter reads its result after the
	// owner has moved on. The owner's next fill is already in flight (and
	// would be writing into the same record) when the waiter wakes up.
	c := New[int](Config{Capacity: 8})
	if _, _, err := c.Do("warm", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if len(c.idle) != 1 {
		t.Fatalf("an unwatched call was not kept for reuse: %d idle", len(c.idle))
	}
	unwatched := c.idle[0]

	attached := func(key string) bool {
		c.flightMu.Lock()
		defer c.flightMu.Unlock()
		cl := c.flight[key]
		return cl != nil && cl.done != nil
	}
	inFill := make(chan *call[int], 1)
	release := make(chan struct{})
	waiter := make(chan int, 1)
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		v, _, _ := c.Do("shared", func() (int, error) {
			c.flightMu.Lock()
			inFill <- c.flight["shared"]
			c.flightMu.Unlock()
			<-release
			return 7, nil
		})
		if v != 7 {
			t.Errorf("owner read %d, want 7", v)
		}
		// The owner's next fill, on another key, while the waiter may not
		// have read its result yet.
		v, _, _ = c.Do("next", func() (int, error) { return 99, nil })
		if v != 99 {
			t.Errorf("owner's next fill read %d, want 99", v)
		}
	}()
	watched := <-inFill
	if watched != unwatched {
		t.Fatalf("the idle call was not the one reused")
	}
	go func() {
		v, o, _ := c.Do("shared", func() (int, error) { return -1, nil })
		if o != Coalesced {
			t.Errorf("waiter outcome %v, want coalesced", o)
		}
		waiter <- v
	}()
	for !attached("shared") {
		runtime.Gosched()
	}
	close(release)
	<-ownerDone
	if got := <-waiter; got != 7 {
		t.Fatalf("coalesced waiter read %d, want 7", got)
	}
	for _, cl := range c.idle {
		if cl == watched {
			t.Fatal("a call a waiter attached to went back on the idle list")
		}
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
	c.SetOnEvict(nil)
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
	if c.String() != "cache(disabled)" {
		t.Fatalf("nil String = %q", c.String())
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
		s := probe.shardOf(k)
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
		c.SetOnEvict(func(k string) { log = append(log, k) })
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
		c.SetOnEvict(func(k string) {
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
	c.SetOnEvict(func(string) {})
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
			if a.shardOf(k) == sh {
				ai = si
			}
		}
		for si, sh := range b.shards {
			if b.shardOf(k) == sh {
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
	cases := map[Outcome]string{Hit: "hit", Filled: "fill", Coalesced: "coalesced"}
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
