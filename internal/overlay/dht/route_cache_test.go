package dht

import (
	"bytes"
	"fmt"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

// Route-cache tests: memoized key → root resolution must cut routing cost
// on repeat lookups without ever serving a successor set that excludes the
// key's current holder — across graceful membership changes and seeded
// Markov churn with a warm cache.

func cachedDHT(t *testing.T, peers int, capacity int) (*DHT, []simnet.NodeID, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 55})
	names := make([]simnet.NodeID, peers)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{
		ReplicationFactor: 3,
		RouteCache:        cache.Config{Capacity: capacity, Shards: 4, Seed: 55},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, names, net
}

func TestRouteCacheCutsRepeatLookupCost(t *testing.T) {
	d, names, _ := cachedDHT(t, 16, 128)
	client := string(names[0])
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
		if _, err := d.Store(client, keys[i], []byte("v-"+keys[i])); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	pass := func() (vals [][]byte, messages int) {
		for _, k := range keys {
			v, st, err := d.Lookup(client, k)
			if err != nil {
				t.Fatalf("Lookup(%s): %v", k, err)
			}
			vals = append(vals, v)
			messages += st.Messages
		}
		return vals, messages
	}
	// The stores above warmed the route cache; drop it so the first pass
	// is genuinely cold.
	d.InvalidateRoutes()
	coldVals, coldMsgs := pass()
	warmVals, warmMsgs := pass()
	for i := range coldVals {
		if !bytes.Equal(coldVals[i], warmVals[i]) {
			t.Fatalf("cached lookup of %s returned different bytes: %q vs %q", keys[i], coldVals[i], warmVals[i])
		}
	}
	if warmMsgs >= coldMsgs {
		t.Fatalf("warm pass should cost fewer messages: cold %d, warm %d", coldMsgs, warmMsgs)
	}
	st := d.RouteCacheStats()
	if st.Hits < int64(len(keys)) {
		t.Fatalf("route cache hits = %d; want >= %d (%+v)", st.Hits, len(keys), st)
	}
}

func TestRouteCacheResultsMatchUncached(t *testing.T) {
	build := func(capacity int) (*DHT, string) {
		net := simnet.New(simnet.Config{Seed: 7})
		names := make([]simnet.NodeID, 16)
		for i := range names {
			names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
		}
		d, err := New(net, names, Config{
			ReplicationFactor: 3,
			RouteCache:        cache.Config{Capacity: capacity, Shards: 4, Seed: 7},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return d, string(names[0])
	}
	cached, cc := build(256)
	bare, bc := build(0)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%d", i)
		v := []byte(fmt.Sprintf("v%d", i))
		if _, err := cached.Store(cc, k, v); err != nil {
			t.Fatalf("cached Store: %v", err)
		}
		if _, err := bare.Store(bc, k, v); err != nil {
			t.Fatalf("bare Store: %v", err)
		}
	}
	// Zipf-ish repeat reads: every value must be byte-identical either way.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", (i*i)%30)
		cv, _, cerr := cached.Lookup(cc, k)
		bv, _, berr := bare.Lookup(bc, k)
		if (cerr == nil) != (berr == nil) {
			t.Fatalf("lookup %s: cached err %v, bare err %v", k, cerr, berr)
		}
		if !bytes.Equal(cv, bv) {
			t.Fatalf("lookup %s: cached %q != bare %q", k, cv, bv)
		}
	}
	if cached.RouteCacheStats().Hits == 0 {
		t.Fatalf("cached arm never hit")
	}
}

func TestRouteCacheSpanRecordsCacheChild(t *testing.T) {
	d, names, _ := cachedDHT(t, 12, 64)
	client := string(names[0])
	if _, err := d.Store(client, "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if _, _, err := d.Lookup(client, "k"); err != nil {
		t.Fatalf("prime Lookup: %v", err)
	}
	sp := telemetry.NewSpan("get")
	if _, _, err := d.LookupSpan(sp, client, "k"); err != nil {
		t.Fatalf("LookupSpan: %v", err)
	}
	var outcome string
	sp.Walk(func(_ int, s *telemetry.Span) {
		if s.Name == "cache" {
			outcome = s.Outcome
		}
	})
	if outcome != "hit" {
		t.Fatalf("warm traced lookup should record a cache child with outcome hit; got %q", outcome)
	}
}

func TestRouteCacheTelemetryCounters(t *testing.T) {
	d, names, _ := cachedDHT(t, 12, 64)
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	client := string(names[0])
	if _, err := d.Store(client, "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := d.Lookup(client, "k"); err != nil {
			t.Fatalf("Lookup: %v", err)
		}
	}
	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["dht_route_cache_hits_total"] < 2 || got["dht_route_cache_misses_total"] < 1 {
		t.Fatalf("route cache counters not mirrored: %v", got)
	}
}

// TestRouteCacheNeverServesStaleHolderUnderChurn is the ISSUE 5 churn
// regression: seeded Markov churn plus graceful membership handoffs run
// against two identically seeded rings — one with a warm route cache, one
// without — and the cached arm must never do worse: wherever the uncached
// arm resolves a key, the cached arm must resolve it to identical bytes
// (a failure or mismatch there means a memoized route excluded the key's
// current holder). The cached arm resolving where the uncached arm's route
// walk died on an offline hop is allowed — a fresh hit routes around dead
// fingers, it cannot be stale.
func TestRouteCacheNeverServesStaleHolderUnderChurn(t *testing.T) {
	build := func(capacity int) (*DHT, []simnet.NodeID, *simnet.Network) {
		net := simnet.New(simnet.Config{Seed: 55})
		names := make([]simnet.NodeID, 16)
		for i := range names {
			names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
		}
		d, err := New(net, names, Config{
			ReplicationFactor: 3,
			RouteCache:        cache.Config{Capacity: capacity, Shards: 4, Seed: 55},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return d, names, net
	}
	cached, names, cnet := build(256)
	bare, _, bnet := build(0)
	client := string(names[0])

	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		for _, d := range []*DHT{cached, bare} {
			if _, err := d.Store(client, keys[i], []byte("v-"+keys[i])); err != nil {
				t.Fatalf("Store: %v", err)
			}
		}
	}
	warm := func() {
		for _, k := range keys {
			cached.Lookup(client, k)
			bare.Lookup(client, k)
		}
	}
	checkAll := func(stage string) {
		for _, k := range keys {
			cv, _, cerr := cached.Lookup(client, k)
			bv, _, berr := bare.Lookup(client, k)
			if berr == nil && cerr != nil {
				t.Fatalf("%s: cached Lookup(%s) failed (%v) where uncached succeeded — stale route excluded the holder", stage, k, cerr)
			}
			if berr == nil && !bytes.Equal(cv, bv) {
				t.Fatalf("%s: cached Lookup(%s) = %q, uncached %q — stale route served wrong bytes", stage, k, cv, bv)
			}
			if cerr == nil && !bytes.Equal(cv, []byte("v-"+k)) {
				t.Fatalf("%s: cached Lookup(%s) = %q; want %q", stage, k, cv, "v-"+k)
			}
		}
	}
	warm()
	checkAll("baseline")

	// Graceful membership handoff with a warm cache: joins move key ranges
	// onto new nodes, leaves push them to successors. Here every key must
	// stay resolvable in both arms — membership changes are not failures.
	for i := 0; i < 3; i++ {
		j := simnet.NodeID(fmt.Sprintf("joiner-%d", i))
		if err := cached.Join(j); err != nil {
			t.Fatalf("Join: %v", err)
		}
		if err := bare.Join(j); err != nil {
			t.Fatalf("Join: %v", err)
		}
		checkAll(fmt.Sprintf("after join %d", i))
		warm()
	}
	if err := cached.Leave(names[5]); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := bare.Leave(names[5]); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	checkAll("after leave")
	warm()

	// Seeded Markov churn (ungraceful): identical schedules drive both
	// nets, heal passes run in lockstep, and the cached arm stays warm
	// across every tick.
	churned := make([]simnet.NodeID, 0, len(names)-2)
	for _, n := range names[2:] {
		if n != names[5] { // departed above
			churned = append(churned, n)
		}
	}
	churn := simnet.ChurnConfig{Seed: 99, Uptime: 0.7}
	csched, err := simnet.NewFaultSchedule(cnet, churned, churn)
	if err != nil {
		t.Fatalf("NewFaultSchedule: %v", err)
	}
	bsched, err := simnet.NewFaultSchedule(bnet, churned, churn)
	if err != nil {
		t.Fatalf("NewFaultSchedule: %v", err)
	}
	for tick := 0; tick < 20; tick++ {
		csched.Tick()
		bsched.Tick()
		if _, err := cached.Heal(); err != nil {
			t.Fatalf("cached Heal: %v", err)
		}
		if _, err := bare.Heal(); err != nil {
			t.Fatalf("bare Heal: %v", err)
		}
		checkAll(fmt.Sprintf("tick %d", tick))
	}
	csched.Restore()
	bsched.Restore()
	checkAll("after restore")
	if cached.RouteCacheStats().Hits == 0 {
		t.Fatalf("cached arm never hit — test exercised nothing")
	}
}

func TestInvalidateRoutesDropsMemoizedRoutes(t *testing.T) {
	d, names, _ := cachedDHT(t, 12, 64)
	client := string(names[0])
	if _, err := d.Store(client, "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if _, _, err := d.Lookup(client, "k"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	before := d.RouteCacheStats().Invalidations
	d.InvalidateRoutes()
	if d.RouteCacheStats().Invalidations != before+1 {
		t.Fatalf("InvalidateRoutes did not bump the cache generation")
	}
	// Next lookup must refill (miss), not hit.
	missesBefore := d.RouteCacheStats().Misses
	if _, _, err := d.Lookup(client, "k"); err != nil {
		t.Fatalf("Lookup after invalidate: %v", err)
	}
	if d.RouteCacheStats().Misses != missesBefore+1 {
		t.Fatalf("lookup after InvalidateRoutes should miss the route cache")
	}
}

// A route-cache hit and an evicting fill at capacity allocate nothing in
// the DHT's own resolution path (resolveRoot). The frame is borrowed outside
// the count, as BenchmarkResolveRoot borrows it; the key log's chunk growth
// is amortised below one allocation a fill (TestCacheFillAllocatesNothing).
// No pool is touched inside the count, so the pin holds under the race
// detector too.
func TestRouteCacheAllocatesNothing(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(3))
	names := make([]simnet.NodeID, 12)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{
		ReplicationFactor: 3,
		RouteCache:        cache.Config{Capacity: 8, Shards: 2, Seed: 3},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	keys := make([]string, 256)
	kids := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		kids[i] = hashID(keys[i])
	}
	f := borrowFrame()
	defer returnFrame(f)
	resolve := func(i int) {
		f.tr = simnet.Trace{}
		if _, err := d.resolveRoot(f, nil, names[0], keys[i], kids[i], false); err != nil {
			t.Fatalf("resolveRoot(%s): %v", keys[i], err)
		}
	}
	const warm = 32 // fills both shards to capacity
	for i := range keys[:warm] {
		resolve(i)
	}
	hits := d.RouteCacheStats().Hits
	if got := testing.AllocsPerRun(100, func() { resolve(warm - 1) }); got != 0 {
		t.Errorf("hit: %v allocs, want 0", got)
	}
	if d.RouteCacheStats().Hits-hits != 101 {
		t.Fatalf("resident route missed")
	}
	evictions := d.RouteCacheStats().Evictions
	i := warm
	if got := testing.AllocsPerRun(100, func() {
		resolve(i)
		i++
	}); got != 0 {
		t.Errorf("evicting fill: %v allocs, want 0", got)
	}
	if n := d.RouteCacheStats().Evictions - evictions; n != 101 {
		t.Fatalf("%d evictions over 101 fresh fills at capacity", n)
	}
}
