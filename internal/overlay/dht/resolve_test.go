package dht

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

// Tests for key → root resolution (routecache.go): batches resolve learned
// segment → walk, single-key operations learned segment → route cache →
// walk, and a batch walk teaches its root's whole segment (pred(R), R].

// resolveCounts reads the two resolution counters.
func resolveCounts(reg *telemetry.Registry) (learned, walks int64) {
	return reg.Counter("dht_resolve_learned_total").Value(), reg.Counter("dht_resolve_walks_total").Value()
}

// learnedSegments reads c's current snapshot as root → its predecessor.
func learnedSegments(c *ownershipCache) map[uint64]uint64 {
	out := map[uint64]uint64{}
	if p := c.segs.Load(); p != nil {
		for _, s := range *p {
			out[s.root] = s.pred
		}
	}
	return out
}

// A walk that started before an invalidation must not teach the ownership
// cache, exactly as the route cache's fenced fill drops its result.
func TestOwnershipLearnFencedByInvalidate(t *testing.T) {
	d, _, _ := buildDHT(t, 8, Config{ReplicationFactor: 2})
	fence := d.ownership.fence()
	d.InvalidateRoutes()
	d.ownership.learn(150, 100, 200, fence)
	if root, ok := d.ownership.lookup(150); ok {
		t.Fatalf("interval learned across an invalidation answered lookup(150) = %d", root)
	}
	d.ownership.learn(150, 100, 200, d.ownership.fence())
	if root, ok := d.ownership.lookup(150); !ok || root != 200 {
		t.Fatalf("learn after the invalidation: lookup(150) = %d,%v, want 200,true", root, ok)
	}
}

// The counters on a fixed input: one 256-key PutBatch walks once per root it
// reaches and answers the rest from the segments it learns on the way; the
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
	const batchWalks = 40 // 40 of the 48 roots own a key of the batch
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

// The key-hash counter on a fixed input: an operation that routes keys
// hashes each once, and a heal pass hashes none — it files every copy on
// the ring by the top bits its record keeps, healthy or repairing.
func TestKeyHashesOnFixedInput(t *testing.T) {
	hashes := func(reg *telemetry.Registry) int64 { return reg.Counter("dht_key_hashes_total").Value() }
	d, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	origin := string(names[0])
	if _, err := d.Store(origin, "one-key", []byte("v")); err != nil || hashes(reg) != 1 {
		t.Fatalf("Store: %d key hashes, %v; want 1", hashes(reg), err)
	}
	if _, _, err := d.Lookup(origin, "one-key"); err != nil || hashes(reg) != 2 {
		t.Fatalf("Lookup: %d key hashes in all, %v; want 2", hashes(reg), err)
	}
	keys, vals := batchKeys(256)
	if _, _, err := d.PutBatch(origin, keys, vals); err != nil || hashes(reg) != 2+256 {
		t.Fatalf("256-key PutBatch: %d key hashes in all, %v; want %d", hashes(reg), err, 2+256)
	}

	for _, ring := range []struct {
		name  string
		build func() (*DHT, int)
	}{
		{"healthy 4000 keys", func() (*DHT, int) { d, _ := healRing(t, 4000); return d, 0 }},
		{"returning=3", func() (*DHT, int) { d, _, missed := returningRing(t, 10_000); return d, missed }},
	} {
		d, missed := ring.build()
		reg := telemetry.NewRegistry()
		d.SetTelemetry(reg)
		report, err := d.Heal()
		if err != nil || report.Repaired != missed || hashes(reg) != 0 {
			t.Fatalf("%s: heal repaired %d of %d with %d key hashes, %v; want none hashed", ring.name, report.Repaired, missed, hashes(reg), err)
		}
	}
}

// The heal copy counter on a fixed input: a pass probes the copies written
// since the last clean pass and the copies of the segments whose live
// targets moved, and skips every other copy on that pass's word. Its report
// is a full pass's either way (TestHealMatchesReferenceModel).
func TestHealChecksOnlyWhatChanged(t *testing.T) {
	checked := func(reg *telemetry.Registry) int64 { return reg.Counter("dht_heal_copies_checked_total").Value() }
	d, names := healRing(t, 4000)
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	pass := func(what string, copies, keys, repaired int) {
		t.Helper()
		before := checked(reg)
		report, err := d.Heal()
		if got := checked(reg) - before; err != nil || got != int64(copies) || report.KeysScanned != keys || report.Repaired != repaired || report.Unrepairable != 0 {
			t.Fatalf("%s: heal checked %d copies, report %+v, %v; want %d copies checked, %d keys scanned, %d repaired", what, got, report, err, copies, keys, repaired)
		}
	}
	pass("first pass", 12_000, 4000, 0)
	pass("second pass", 0, 4000, 0)

	origin := string(names[0])
	for i := 0; i < 100; i++ {
		if _, err := d.Store(origin, fmt.Sprintf("new-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pass("after 100 stores", 300, 4100, 0)
	pass("the pass after", 0, 4100, 0)

	// A crash-restart is a removal: the next pass probes every copy, then
	// the one after it the copies that pass pushed back.
	victim := names[5]
	lost := d.view().names[victim].data.len()
	if err := d.net.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := d.net.SetOnline(victim, true); err != nil {
		t.Fatal(err)
	}
	pass("after a crash-restart", 12_300-lost, 4100, lost)
	pass("the pass after", lost, 4100, 0)
	pass("the pass after that", 0, 4100, 0)

	// A placement veto moves the live targets of the segments the vetoed
	// node served: the next pass probes the copies of those segments' keys
	// and pushes each key to the node its targets now reach.
	v := d.view()
	before := make([][]*node, len(v.ring))
	for i, id := range v.ring {
		before[i] = d.liveTargets(id, d.replica)
	}
	vetoed := string(names[11])
	d.SetPlacementFilter(func(node string) bool { return node != vetoed })
	moved := make(map[string]bool)
	copies := 0
	for _, n := range v.members() {
		n.data.each(func(key string, _ uint32, _ []byte) {
			i := v.segmentOf(hashID(key))
			if !slices.Equal(before[i], d.liveTargets(v.ring[i], d.replica)) {
				moved[key] = true
				copies++
			}
		})
	}
	if len(moved) == 0 || copies != 3*len(moved) {
		t.Fatalf("veto of %s moves %d keys with %d copies; want some keys, three copies each", vetoed, len(moved), copies)
	}
	pass("after a placement-filter change", copies, 4100, len(moved))
	pass("the pass after", len(moved), 4100, 0)
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

// Batches never read or fill the route cache: it is the single-key memo, so
// a cache far smaller than the keys batched sees no traffic at all, and
// the batches walk at most once per root.
func TestBatchesNeverTouchRouteCache(t *testing.T) {
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
	if st := d.RouteCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("1 024 batched keys moved the route cache: %+v", st)
	}
	if _, walks := resolveCounts(reg); walks > 48 {
		t.Fatalf("4 batches walked %d times on a 48-node ring; a learned segment must answer every root walked to", walks)
	}
}

// Each exit of a batch walk teaches exactly its root's segment
// (pred(R), R], even when the walked key is R itself: the origin's own
// shortcut, a Done reply, and routing around an offline predecessor.
func TestBatchWalkLearnsWholeSegment(t *testing.T) {
	d, net, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	v := d.view()
	origin := names[0]
	o := v.names[origin].id
	far := v.successorsOf(nil, o, 25)[24] // half the ring away from the origin
	for _, tc := range []struct {
		name    string
		root    uint64
		offline bool
	}{
		{"origin shortcut", v.successorID(o + 1), false},
		{"done reply", far, false},
		{"offline hop", far, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pred := v.predecessorID(tc.root)
			if tc.offline {
				net.SetOnline(v.byID[pred].name, false)
				defer net.SetOnline(v.byID[pred].name, true)
			}
			d.InvalidateRoutes()
			f := borrowFrame()
			root, err := d.resolveRoot(f, nil, origin, "", tc.root, true)
			hops := f.tr.Hops
			returnFrame(f)
			if err != nil || root != tc.root {
				t.Fatalf("resolved %d to %d, %v; want %d", tc.root, root, err, tc.root)
			}
			if shortcut := tc.root == v.successorID(o+1); (hops == 0) != shortcut {
				t.Fatalf("walk took %d hops; the origin shortcut takes none, every other exit some", hops)
			}
			learned := learnedSegments(&d.ownership)
			if want := map[uint64]uint64{root: pred}; !maps.Equal(learned, want) {
				t.Fatalf("learned %v, want exactly root %d's segment from %d", learned, root, pred)
			}
			for _, kid := range []uint64{pred + 1, root} {
				if got, ok := d.ownership.lookup(kid); !ok || got != root {
					t.Fatalf("lookup(%d) = %d,%v inside the learned segment", kid, got, ok)
				}
			}
			if _, ok := d.ownership.lookup(pred); ok {
				t.Fatalf("lookup(%d) hit: the predecessor is not in its successor's segment", pred)
			}
		})
	}
	// A walk whose answer does not cover its kid teaches nothing.
	var c ownershipCache
	c.learn(50, 100, 200, c.fence())
	if root, ok := c.lookup(150); ok || len(learnedSegments(&c)) != 0 {
		t.Fatalf("kid 50 outside (100, 200] taught a segment: lookup(150) = %d,%v", root, ok)
	}
}

// The work counter learned segments move, on a fixed input: once batches
// have walked to every root of a 48-node k=3 ring, 256 single-key Lookups
// and 256 Stores add nothing to dht_resolve_walks_total, and to
// simnet_rpcs_total exactly their data RPCs — one fetch per Lookup that
// hits, three stores per Store.
func TestOneWalkPerRoot(t *testing.T) {
	d, net, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	reg := telemetry.NewRegistry()
	net.SetTelemetry(reg)
	d.SetTelemetry(reg)
	origin := string(names[0])
	var keys []string
	for b := 0; len(learnedSegments(&d.ownership)) < 48; b++ {
		if b == 8 {
			t.Fatalf("8 batches learned %d of the 48 roots", len(learnedSegments(&d.ownership)))
		}
		batch, vals := batchKeys(256)
		for i := range batch {
			batch[i] = fmt.Sprintf("sweep-%d/%s", b, batch[i])
		}
		if _, _, err := d.PutBatch(origin, batch, vals); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		keys = append(keys, batch...)
	}
	rpcs, walks := reg.Counter("simnet_rpcs_total"), reg.Counter("dht_resolve_walks_total")
	rpcsBefore, walksBefore := rpcs.Value(), walks.Value()
	for _, key := range keys[:256] {
		if _, _, err := d.Lookup(origin, key); err != nil {
			t.Fatalf("Lookup(%s): %v", key, err)
		}
	}
	fresh, vals := batchKeys(256)
	for i, key := range fresh {
		if _, err := d.Store(origin, key, vals[i]); err != nil {
			t.Fatalf("Store(%s): %v", key, err)
		}
	}
	if got := walks.Value() - walksBefore; got != 0 {
		t.Fatalf("single-key operations added %d to dht_resolve_walks_total, want 0", got)
	}
	if got, want := rpcs.Value()-rpcsBefore, int64(256+3*256); got != want {
		t.Fatalf("single-key operations added %d to simnet_rpcs_total, want %d (their data RPCs only)", got, want)
	}
}

// What it guards: the ownership cache's lock and fence under concurrent
// single-key resolution, batch walks that learn, invalidations that clear,
// and Join/Leave changing the ring under the walks — no race, every read
// that routes finds its value, and every segment left learned is its root's whole
// segment on the final ring (a wrong one would now misroute a whole
// segment, not a sliver of it).
func TestOwnershipHammer(t *testing.T) {
	d, names, _ := cachedDHT(t, 48, 64)
	keys, vals := batchKeys(512)
	origin := string(names[0])
	if _, _, err := d.PutBatch(origin, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	errc := make(chan error, 5)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			from := string(names[1+r])
			for i := 0; i < rounds*4; i++ {
				j := (i*31 + r*17) % len(keys)
				// A walk that reaches a node Leave just dropped fails with
				// ErrUnavailable (the resilience layer retries it); any
				// other failure or a wrong value is a bug.
				got, _, err := d.Lookup(from, keys[j])
				if errors.Is(err, overlay.ErrUnavailable) {
					continue
				}
				if err != nil || !bytes.Equal(got, vals[j]) {
					errc <- fmt.Errorf("reader %d: Lookup(%s) = %q, %v", r, keys[j], got, err)
					return
				}
				if _, _, err := d.ReplicasFor(from, keys[j]); err != nil && !errors.Is(err, overlay.ErrUnavailable) {
					errc <- fmt.Errorf("reader %d: ReplicasFor(%s): %v", r, keys[j], err)
					return
				}
			}
		}(r)
	}
	wg.Add(3)
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
	// Between two ring changes, every learned segment is exact on the
	// current ring: a walk fenced after the last change saw only that ring.
	exact := func() (int, error) {
		v := d.view()
		learned := learnedSegments(&d.ownership)
		for root, pred := range learned {
			if v.byID[root] == nil || v.predecessorID(root) != pred {
				return 0, fmt.Errorf("learned (%d, %d] is not a segment of the ring", pred, root)
			}
		}
		return len(learned), nil
	}
	go func() {
		// A node joins and leaves again: it takes over a segment and hands
		// it back, so every key keeps a holder throughout.
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			name := simnet.NodeID(fmt.Sprintf("churn-%d", i))
			for _, change := range []func(simnet.NodeID) error{d.Join, d.Leave} {
				if err := change(name); err != nil {
					errc <- fmt.Errorf("%s: %v", name, err)
					return
				}
				if _, err := exact(); err != nil {
					errc <- fmt.Errorf("after a ring change: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if _, _, err := d.PutBatch(origin, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if n, err := exact(); err != nil || n == 0 {
		t.Fatalf("a batch on the settled ring learned %d segments: %v", n, err)
	}
}
