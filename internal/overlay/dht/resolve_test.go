package dht

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/telemetry"
)

// Tests for the one resolution order (routecache.go): learned ownership
// interval, then route cache, then the walk, on both the single-key and the
// batch path.

// resolveCounts reads the two resolution counters.
func resolveCounts(reg *telemetry.Registry) (learned, walks int64) {
	return reg.Counter("dht_resolve_learned_total").Value(), reg.Counter("dht_resolve_walks_total").Value()
}

// A walk that started before an invalidation must not teach the ownership
// cache, exactly as the route cache's fenced fill drops its result.
func TestOwnershipLearnFencedByInvalidate(t *testing.T) {
	d, _, _ := buildDHT(t, 8, Config{ReplicationFactor: 2})
	fence := d.ownership.fence()
	d.InvalidateRoutes()
	d.ownership.learn(100, 200, fence)
	if root, ok := d.ownership.lookup(150); ok {
		t.Fatalf("interval learned across an invalidation answered lookup(150) = %d", root)
	}
	d.ownership.learn(100, 200, d.ownership.fence())
	if root, ok := d.ownership.lookup(150); !ok || root != 200 {
		t.Fatalf("learn after the invalidation: lookup(150) = %d,%v, want 200,true", root, ok)
	}
}

// The counters on a fixed input: one 256-key PutBatch walks to learn the
// ring and answers the rest from the intervals it learns on the way; the
// same keys' single-key Lookups then never walk.
func TestResolveCountersOnFixedInput(t *testing.T) {
	d, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	keys, vals := batchKeys(256)
	origin := string(names[0])
	errs, _, err := d.PutBatch(origin, keys, vals)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("PutBatch key %s: %v", keys[i], err)
		}
	}
	const batchWalks = 41 // 41 of the 48 roots own a key of the batch
	if learned, walks := resolveCounts(reg); learned != 256-batchWalks || walks != batchWalks {
		t.Fatalf("after PutBatch: learned %d, walks %d; want %d, %d", learned, walks, 256-batchWalks, batchWalks)
	}
	for i, key := range keys {
		got, _, err := d.Lookup(origin, key)
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("Lookup(%s) = %q, %v; want %q", key, got, err, vals[i])
		}
	}
	if learned, walks := resolveCounts(reg); learned != 2*256-batchWalks || walks != batchWalks {
		t.Fatalf("after Lookups: learned %d, walks %d; want %d, %d (lookups walk 0 times)", learned, walks, 2*256-batchWalks, batchWalks)
	}
	// Off again: nothing more is counted.
	d.SetTelemetry(nil)
	if _, _, err := d.Lookup(origin, keys[0]); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if learned, walks := resolveCounts(reg); learned != 2*256-batchWalks || walks != batchWalks {
		t.Fatalf("detached counters moved: learned %d, walks %d", learned, walks)
	}
}

// A key inside a learned interval is resolved for Store, Lookup and
// ReplicasFor without a find_successor RPC: each operation's hops are its
// replica RPCs only, and a learned Store still allocates nothing.
func TestLearnedIntervalServesSingleKeyOps(t *testing.T) {
	learnt, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	cold, _, _ := buildDHT(t, 48, Config{ReplicationFactor: 3})
	origin := string(names[0])
	keys, vals := batchKeys(64)
	for _, d := range []*DHT{learnt, cold} {
		for i, key := range keys {
			if _, err := d.Store(origin, key, vals[i]); err != nil {
				t.Fatalf("Store(%s): %v", key, err)
			}
		}
	}
	if _, _, err := learnt.PutBatch(origin, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	reg := telemetry.NewRegistry()
	learnt.SetTelemetry(reg)
	coldHops := 0
	for i, key := range keys {
		st, err := learnt.Store(origin, key, vals[i])
		if err != nil || st.Hops != 3 {
			t.Fatalf("learned Store(%s): %d hops, %v; want the 3 replica writes only", key, st.Hops, err)
		}
		got, st, err := learnt.Lookup(origin, key)
		if err != nil || !bytes.Equal(got, vals[i]) || st.Hops != 1 {
			t.Fatalf("learned Lookup(%s) = %q, %d hops, %v; want %q from the first replica", key, got, st.Hops, err, vals[i])
		}
		plan, st, err := learnt.ReplicasFor(origin, key)
		if err != nil || st.Hops != 0 || st.Messages != 0 {
			t.Fatalf("learned ReplicasFor(%s): %+v, %v; want no RPC", key, st, err)
		}
		if want := replicaNames(learnt, key); string(want[0]) != plan[0] {
			t.Fatalf("learned ReplicasFor(%s) starts at %s, want %s", key, plan[0], want[0])
		}
		_, st, err = cold.Lookup(origin, key)
		if err != nil {
			t.Fatalf("cold Lookup(%s): %v", key, err)
		}
		coldHops += st.Hops
	}
	if coldHops <= len(keys) {
		t.Fatalf("cold ring spent %d hops on %d lookups; the comparison shows no routing", coldHops, len(keys))
	}
	if learned, walks := resolveCounts(reg); learned != 3*int64(len(keys)) || walks != 0 {
		t.Fatalf("learned %d, walks %d; want %d, 0", learned, walks, 3*len(keys))
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(50, func() { _, _ = learnt.Store(origin, keys[0], vals[0]) }); a != 0 {
			t.Fatalf("learned Store allocates %.1f times, want 0", a)
		}
	}
}

// On a ring that has learned nothing, the interval step answers nothing, so
// a fixed per-key sequence costs exactly what it cost before single-key
// operations consulted the intervals: the digest and route-cache counters
// below were recorded with the route cache as the only memo.
func TestUnlearnedRingKeepsPerKeyTraces(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cached bool
		digest uint64
		stats  cache.Stats
	}{
		{"uncached", false, 0x950d8b2ae5f4006b, cache.Stats{}},
		{"cached", true, 0x11507ce59b27ac70, cache.Stats{Hits: 133, Misses: 107, Evictions: 70, Invalidations: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capacity := 0
			if tc.cached {
				capacity = 24
			}
			d, names, _ := cachedDHT(t, 24, capacity)
			h := fnv.New64a()
			record := func(st overlay.OpStats) {
				fmt.Fprintf(h, "%d/%d/%d/%d;", st.Hops, st.Messages, st.Bytes, st.Latency)
			}
			for i := 0; i < 240; i++ {
				origin := string(names[(i*5)%len(names)])
				key := fmt.Sprintf("seq-%d", (i*i+i/3)%50)
				switch i % 3 {
				case 0:
					st, err := d.Store(origin, key, []byte(key))
					if err != nil {
						t.Fatalf("Store(%s): %v", key, err)
					}
					record(st)
				case 1:
					_, st, _ := d.Lookup(origin, key)
					record(st)
				case 2:
					_, st, err := d.ReplicasFor(origin, key)
					if err != nil {
						t.Fatalf("ReplicasFor(%s): %v", key, err)
					}
					record(st)
				}
				if i == 120 {
					d.InvalidateRoutes()
				}
			}
			if got := h.Sum64(); got != tc.digest {
				t.Errorf("trace digest %#x, want %#x", got, tc.digest)
			}
			if got := d.RouteCacheStats(); got != tc.stats {
				t.Errorf("RouteCacheStats %+v, want %+v", got, tc.stats)
			}
		})
	}
}

// A batch answered by learned intervals leaves the route cache alone: only
// walks fill it, so a cache far smaller than the keys batched never evicts.
func TestPutBatchLeavesRouteCacheToWalks(t *testing.T) {
	d, names, _ := cachedDHT(t, 48, 256)
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	origin := string(names[0])
	for round := 0; round < 4; round++ {
		keys := make([]string, 256)
		vals := make([][]byte, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("round-%d/key-%d", round, i)
			vals[i] = []byte(keys[i])
		}
		if _, _, err := d.PutBatch(origin, keys, vals); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
	}
	st := d.RouteCacheStats()
	if st.Evictions != 0 {
		t.Fatalf("1 024 batched keys evicted %d route-cache entries; interval-answered keys must not fill it", st.Evictions)
	}
	if _, walks := resolveCounts(reg); st.Hits != 0 || st.Misses != walks {
		t.Fatalf("route cache saw %+v over %d walks; want one miss per walk and nothing else", st, walks)
	}
}

// What it guards: the ownership cache's lock and fence under concurrent
// single-key resolution, batch walks that learn, and invalidations that
// clear — no race, and every read still finds its value.
func TestOwnershipHammer(t *testing.T) {
	d, names, _ := cachedDHT(t, 48, 64)
	keys, vals := batchKeys(512)
	origin := string(names[0])
	if _, _, err := d.PutBatch(origin, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			from := string(names[1+r])
			for i := 0; i < rounds*4; i++ {
				j := (i*31 + r*17) % len(keys)
				got, _, err := d.Lookup(from, keys[j])
				if err != nil || !bytes.Equal(got, vals[j]) {
					errc <- fmt.Errorf("reader %d: Lookup(%s) = %q, %v", r, keys[j], got, err)
					return
				}
				if _, _, err := d.ReplicasFor(from, keys[j]); err != nil {
					errc <- fmt.Errorf("reader %d: ReplicasFor(%s): %v", r, keys[j], err)
					return
				}
			}
		}(r)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			lo := (i * 64) % len(keys)
			if _, _, err := d.PutBatch(origin, keys[lo:lo+64], vals[lo:lo+64]); err != nil {
				errc <- fmt.Errorf("PutBatch: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			d.InvalidateRoutes()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Whatever survived is true of the ring: each learned bound resolves to
	// its root.
	v := d.view()
	d.ownership.mu.Lock()
	defer d.ownership.mu.Unlock()
	for root, m := range d.ownership.minKid {
		if got := v.successorID(m); got != root {
			t.Fatalf("learned interval (%d, %d] is wrong: %d resolves to %d", m, root, m, got)
		}
	}
}
