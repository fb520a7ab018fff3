package cache

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
)

// BenchmarkCacheHit measures the steady-state hot path: a resident key
// served without touching the fill function.
func BenchmarkCacheHit(b *testing.B) {
	c := New[[]byte](Config{Capacity: 1024, Shards: 8, Seed: 1})
	c.Put("hot", []byte("value"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("hot"); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheMiss measures a Do that always misses and fills (distinct
// key per op, capacity pressure forcing evictions).
func BenchmarkCacheMiss(b *testing.B) {
	c := New[int](Config{Capacity: 256, Shards: 8, Seed: 1})
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		c.Invalidate(k)
		if _, _, err := c.Do(k, func() (int, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheShardedContention measures Get/Put throughput with
// GOMAXPROCS goroutines spread across the shard space.
func BenchmarkCacheShardedContention(b *testing.B) {
	c := New[int](Config{Capacity: 4096, Shards: runtime.GOMAXPROCS(0) * 2, Seed: 1})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		c.Put(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%len(keys)]
			if i%16 == 0 {
				c.Put(k, i)
			} else {
				c.Get(k)
			}
			i++
		}
	})
}

// BenchmarkCacheFill measures fills in the shape of feed-private's
// envelope-key caches: DoBytes on a fresh "<reader>/<epoch>/<tag>" key into
// a growing cache that never evicts (a new cache every 4096 fills, half its
// capacity), so slab blocks, index and key-log chunks grow as they do there.
func BenchmarkCacheFill(b *testing.B) {
	const fills = 4096
	val := []byte("session key")
	fill := func() ([]byte, error) { return val, nil }
	var c *Cache[[]byte]
	key := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%fills == 0 {
			c = New[[]byte](Config{Capacity: 2 * fills, Seed: 1})
		}
		key = append(key[:0], "g07-m3/"...)
		key = strconv.AppendInt(key, int64(i), 10)
		key = append(key, "/9f86d081884c7d65"...)
		if _, o, _ := c.DoBytes(key, fill); o != Filled {
			b.Fatal("fresh key hit")
		}
	}
}
