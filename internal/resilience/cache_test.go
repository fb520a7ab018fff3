package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	cachepkg "godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

// Verified-value cache coherence tests: repeat lookups are served from
// memory, but a cached value must never survive a Store, a scrub verdict
// against its key, or a quarantine of a holder.

func cachedKVConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Cache = cachepkg.Config{Capacity: 256, Shards: 4, Seed: seed}
	return cfg
}

func TestValueCacheServesRepeatLookupsFree(t *testing.T) {
	d, _, names := buildDHT(t, 24, 31, 0, 3)
	kv := Wrap(d, cachedKVConfig(31))
	client := string(names[0])
	if _, err := kv.Store(client, "k", []byte("value")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v1, cold, err := kv.Lookup(client, "k")
	if err != nil {
		t.Fatalf("cold Lookup: %v", err)
	}
	if cold.Messages == 0 {
		t.Fatalf("cold lookup should cost messages")
	}
	v2, warm, err := kv.Lookup(client, "k")
	if err != nil {
		t.Fatalf("warm Lookup: %v", err)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatalf("cached bytes differ: %q vs %q", v1, v2)
	}
	if warm.Messages != 0 || warm.Latency != 0 {
		t.Fatalf("warm lookup should be free: %+v", warm)
	}
	st := kv.ValueCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v; want 1 hit, 1 miss", st)
	}
}

func TestValueCacheStoreInvalidates(t *testing.T) {
	d, _, names := buildDHT(t, 24, 32, 0, 3)
	kv := Wrap(d, cachedKVConfig(32))
	client := string(names[0])
	if _, err := kv.Store(client, "k", []byte("old")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if v, _, err := kv.Lookup(client, "k"); err != nil || !bytes.Equal(v, []byte("old")) {
		t.Fatalf("prime Lookup: %q, %v", v, err)
	}
	if _, err := kv.Store(client, "k", []byte("new")); err != nil {
		t.Fatalf("overwrite Store: %v", err)
	}
	v, _, err := kv.Lookup(client, "k")
	if err != nil {
		t.Fatalf("Lookup after overwrite: %v", err)
	}
	if !bytes.Equal(v, []byte("new")) {
		t.Fatalf("cached value outlived a Store: got %q, want %q", v, "new")
	}
}

func TestValueCacheNotFoundNeverCached(t *testing.T) {
	d, _, names := buildDHT(t, 24, 34, 0, 3)
	kv := Wrap(d, cachedKVConfig(34))
	client := string(names[0])
	if _, _, err := kv.Lookup(client, "ghost"); !errors.Is(err, overlay.ErrNotFound) {
		t.Fatalf("missing key: %v; want ErrNotFound", err)
	}
	if _, err := kv.Store(client, "ghost", []byte("now real")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, _, err := kv.Lookup(client, "ghost")
	if err != nil || !bytes.Equal(v, []byte("now real")) {
		t.Fatalf("a cached not-found masked a later Store: %q, %v", v, err)
	}
}

func TestValueCacheInvalidateValueAndValues(t *testing.T) {
	d, _, names := buildDHT(t, 24, 35, 0, 3)
	kv := Wrap(d, cachedKVConfig(35))
	client := string(names[0])
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, err := kv.Store(client, k, []byte(k)); err != nil {
			t.Fatalf("Store: %v", err)
		}
		if _, _, err := kv.Lookup(client, k); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
	kv.InvalidateValue("k0")
	misses := kv.ValueCacheStats().Misses
	if _, _, err := kv.Lookup(client, "k0"); err != nil {
		t.Fatalf("Lookup k0: %v", err)
	}
	if kv.ValueCacheStats().Misses != misses+1 {
		t.Fatalf("InvalidateValue did not drop k0")
	}
	if _, _, err := kv.Lookup(client, "k1"); err != nil {
		t.Fatalf("Lookup k1: %v", err)
	}
	if kv.ValueCacheStats().Misses != misses+1 {
		t.Fatalf("InvalidateValue dropped more than its key")
	}
}

// TestQuarantineBumpsValueAndRouteCaches: a breaker quarantine transition
// must drop every cached value and every memoized route — both predate the
// discovery that a holder was serving corruption.
func TestQuarantineBumpsValueAndRouteCaches(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 36})
	names := make([]simnet.NodeID, 24)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{
		ReplicationFactor: 3,
		RouteCache:        cachepkg.Config{Capacity: 128, Shards: 4, Seed: 36},
	})
	if err != nil {
		t.Fatalf("dht.New: %v", err)
	}
	kv := Wrap(d, cachedKVConfig(36))
	client := string(names[0])
	if _, err := kv.Store(client, "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if _, _, err := kv.Lookup(client, "k"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	valInv := kv.ValueCacheStats().Invalidations
	routeInv := d.RouteCacheStats().Invalidations

	// Three corruption verdicts cross the default threshold: the node is
	// quarantined and the hook must fire.
	for i := 0; i < 3; i++ {
		kv.Breaker().ReportCorrupt(string(names[5]))
	}
	if !kv.Breaker().Quarantined(string(names[5])) {
		t.Fatalf("node should be quarantined")
	}
	if kv.ValueCacheStats().Invalidations <= valInv {
		t.Fatalf("quarantine did not bump the value cache")
	}
	if d.RouteCacheStats().Invalidations <= routeInv {
		t.Fatalf("quarantine did not invalidate the route cache")
	}
	// The cached value must re-fill, not hit.
	misses := kv.ValueCacheStats().Misses
	if _, _, err := kv.Lookup(client, "k"); err != nil {
		t.Fatalf("Lookup after quarantine: %v", err)
	}
	if kv.ValueCacheStats().Misses != misses+1 {
		t.Fatalf("cached value outlived a quarantine of its holder group")
	}
}

func TestValueCacheSpanRecordsCacheChild(t *testing.T) {
	d, _, names := buildDHT(t, 24, 37, 0, 3)
	kv := Wrap(d, cachedKVConfig(37))
	client := string(names[0])
	if _, err := kv.Store(client, "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	outcomes := func() []string {
		sp := telemetry.NewSpan("get")
		if _, _, err := kv.LookupSpan(sp, client, "k"); err != nil {
			t.Fatalf("LookupSpan: %v", err)
		}
		var out []string
		sp.Walk(func(depth int, s *telemetry.Span) {
			if depth == 1 && s.Name == "cache" {
				out = append(out, s.Outcome)
			}
		})
		return out
	}
	first := outcomes()
	if len(first) != 1 || first[0] != "fill" {
		t.Fatalf("cold traced lookup cache child = %v; want [fill]", first)
	}
	second := outcomes()
	if len(second) != 1 || second[0] != "hit" {
		t.Fatalf("warm traced lookup cache child = %v; want [hit]", second)
	}
}

func TestValueCacheTelemetryCounters(t *testing.T) {
	d, _, names := buildDHT(t, 24, 38, 0, 3)
	kv := Wrap(d, cachedKVConfig(38))
	reg := telemetry.NewRegistry()
	kv.SetTelemetry(reg)
	client := string(names[0])
	if _, err := kv.Store(client, "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := kv.Lookup(client, "k"); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["resilience_value_cache_hits_total"] < 2 || got["resilience_value_cache_misses_total"] < 1 {
		t.Fatalf("value cache counters not mirrored: %v", got)
	}
}

// TestValueCacheResultsMatchUncachedUnderLoss: a lossy network with hedged
// reads — every successful cached read must be byte-identical to what an
// identically seeded uncached arm reads, and availability must not drop.
func TestValueCacheResultsMatchUncachedUnderLoss(t *testing.T) {
	run := func(withCache bool) map[string][]byte {
		d, net, names := buildDHT(t, 32, 39, 0, 3)
		cfg := DefaultConfig(39)
		if withCache {
			cfg.Cache = cachepkg.Config{Capacity: 256, Shards: 4, Seed: 39}
		}
		kv := Wrap(d, cfg)
		client := string(names[0])
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, err := kv.Store(client, k, []byte("v-"+k)); err != nil {
				t.Fatalf("Store: %v", err)
			}
		}
		net.SetLossRate(0.10)
		out := make(map[string][]byte)
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("k%d", (i*i)%30)
			v, _, err := kv.Lookup(client, k)
			if err != nil {
				t.Fatalf("lookup %s failed at 10%% loss (cache=%v): %v", k, withCache, err)
			}
			out[k] = v
		}
		return out
	}
	cached := run(true)
	bare := run(false)
	for k, v := range bare {
		if !bytes.Equal(cached[k], v) {
			t.Fatalf("key %s: cached %q != uncached %q", k, cached[k], v)
		}
	}
}
