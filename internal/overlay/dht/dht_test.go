package dht

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

func buildDHT(t *testing.T, n int, cfg Config) (*DHT, *simnet.Network, []simnet.NodeID) {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(1))
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, net, names
}

func TestStoreLookup(t *testing.T) {
	d, _, names := buildDHT(t, 32, Config{ReplicationFactor: 2})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		if _, err := d.Store(string(names[i%len(names)]), key, val); err != nil {
			t.Fatalf("Store(%s): %v", key, err)
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, st, err := d.Lookup(string(names[(i*7)%len(names)]), key)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", key, err)
		}
		if string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Lookup(%s) = %q", key, got)
		}
		if st.Hops < 1 {
			t.Fatalf("lookup reported %d hops", st.Hops)
		}
	}
}

func TestLookupMissingKey(t *testing.T) {
	d, _, names := buildDHT(t, 16, Config{ReplicationFactor: 1})
	_, _, err := d.Lookup(string(names[0]), "never-stored")
	if !errors.Is(err, overlay.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestUnknownOrigin(t *testing.T) {
	d, _, _ := buildDHT(t, 4, Config{})
	if _, err := d.Store("stranger", "k", []byte("v")); err == nil {
		t.Fatal("Store from unknown origin succeeded")
	}
	if _, _, err := d.Lookup("stranger", "k"); err == nil {
		t.Fatal("Lookup from unknown origin succeeded")
	}
}

func TestEmptyOverlay(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	if _, err := New(net, nil, Config{}); !errors.Is(err, overlay.ErrNoNodes) {
		t.Fatalf("got %v, want ErrNoNodes", err)
	}
}

func TestLogarithmicHopGrowth(t *testing.T) {
	// The paper: structured overlays resolve queries "in a limited number
	// of steps" — hops should grow ~log n, far below linear.
	avgHops := func(n int) float64 {
		d, _, names := buildDHT(t, n, Config{ReplicationFactor: 1})
		for i := 0; i < 30; i++ {
			d.Store(string(names[0]), fmt.Sprintf("k%d", i), []byte("v"))
		}
		total := 0
		count := 0
		for i := 0; i < 30; i++ {
			_, st, err := d.Lookup(string(names[(i*13+1)%n]), fmt.Sprintf("k%d", i))
			if err != nil {
				continue
			}
			total += st.Hops
			count++
		}
		if count == 0 {
			t.Fatal("no successful lookups")
		}
		return float64(total) / float64(count)
	}
	small := avgHops(16)
	large := avgHops(256)
	// 16x more nodes should cost ~4 extra hops (log2), not 16x.
	if large > small*4 {
		t.Fatalf("hop growth not logarithmic: n=16 avg %.1f, n=256 avg %.1f", small, large)
	}
	if large > 2*math.Log2(256) {
		t.Fatalf("n=256 average hops %.1f exceeds 2*log2(n)", large)
	}
}

func TestReplicationSurvivesPrimaryFailure(t *testing.T) {
	d, net, names := buildDHT(t, 32, Config{ReplicationFactor: 3})
	key := "important"
	if _, err := d.Store(string(names[0]), key, []byte("data")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	// Kill the key's primary successor.
	kid := hashID(key)
	primary := d.view().byID[d.view().successorID(kid)]
	net.SetOnline(primary.name, false)

	origin := names[0]
	if origin == primary.name {
		origin = names[1]
	}
	got, _, err := d.Lookup(string(origin), key)
	if err != nil {
		t.Fatalf("Lookup after primary failure: %v", err)
	}
	if string(got) != "data" {
		t.Fatalf("got %q", got)
	}
}

func TestNoReplicationFailsOnPrimaryLoss(t *testing.T) {
	d, net, names := buildDHT(t, 32, Config{ReplicationFactor: 1})
	key := "fragile"
	if _, err := d.Store(string(names[0]), key, []byte("data")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	kid := hashID(key)
	primary := d.view().byID[d.view().successorID(kid)]
	net.SetOnline(primary.name, false)
	origin := names[0]
	if origin == primary.name {
		origin = names[1]
	}
	if _, _, err := d.Lookup(string(origin), key); err == nil {
		t.Fatal("lookup succeeded with sole replica offline")
	}
}

func TestInInterval(t *testing.T) {
	tests := []struct {
		x, a, b uint64
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, true},
		{11, 1, 10, false},
		{0, 10, 2, true},  // wraparound
		{11, 10, 2, true}, // wraparound
		{5, 10, 2, false},
		{7, 7, 7, true}, // full circle
	}
	for _, tt := range tests {
		if got := inInterval(tt.x, tt.a, tt.b); got != tt.want {
			t.Errorf("inInterval(%d, %d, %d) = %v, want %v", tt.x, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLookupFromEveryOrigin(t *testing.T) {
	d, _, names := buildDHT(t, 20, Config{ReplicationFactor: 1})
	if _, err := d.Store(string(names[3]), "shared", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	for _, origin := range names {
		got, _, err := d.Lookup(string(origin), "shared")
		if err != nil || string(got) != "v" {
			t.Fatalf("Lookup from %s: %v", origin, err)
		}
	}
}

func TestOverwrite(t *testing.T) {
	d, _, names := buildDHT(t, 8, Config{ReplicationFactor: 2})
	d.Store(string(names[0]), "k", []byte("v1"))
	d.Store(string(names[1]), "k", []byte("v2"))
	got, _, err := d.Lookup(string(names[2]), "k")
	if err != nil || string(got) != "v2" {
		t.Fatalf("overwrite: %q, %v", got, err)
	}
}

func TestNameLabel(t *testing.T) {
	d, _, _ := buildDHT(t, 2, Config{})
	if d.Name() == "" {
		t.Fatal("empty overlay name")
	}
}

func TestSingleKeyOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	// An operation borrows one frame: trace, requests and reply slots serve
	// every hop and every replica, so what it allocates does not grow with
	// the walk. What is left is what leaves the DHT: the value copy a reader
	// owns. On a healthy ring ReplicasFor hands out the view's shared
	// canonical slice and allocates nothing; with a canonical holder offline
	// it builds the extended list in a fresh slice. With a one-entry route
	// cache the two keys of a pair evict each other, so every operation also
	// takes the cache's fill path.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"uncached", Config{ReplicationFactor: 3}},
		{"route-cache-fills", Config{ReplicationFactor: 3, RouteCache: cache.Config{Capacity: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, net, names := buildDHT(t, 48, tc.cfg)
			origin := string(names[0])
			value := []byte("a stored value")
			longest := 0
			for i := 0; i < 8; i++ {
				pair := [2]string{fmt.Sprintf("key-%d", i), fmt.Sprintf("key-%d", i+8)}
				var replica [2]string
				for j, key := range pair {
					st, err := d.StoreSpan(nil, origin, key, value)
					if err != nil {
						t.Fatalf("Store(%s): %v", key, err)
					}
					if st.Hops > longest {
						longest = st.Hops
					}
					replica[j] = string(replicaNames(d, key)[0])
				}
				perOp := func(op func(j int, key string)) float64 {
					return testing.AllocsPerRun(50, func() {
						for j, key := range pair {
							op(j, key)
						}
					}) / 2
				}
				for _, c := range []struct {
					op   string
					max  float64
					call func(j int, key string)
				}{
					{"StoreSpan", 1, func(_ int, key string) { _, _ = d.StoreSpan(nil, origin, key, value) }},
					{"LookupSpan", 2, func(_ int, key string) { _, _, _ = d.LookupSpan(nil, origin, key) }},
					{"ReplicasFor", 0, func(_ int, key string) { _, _, _ = d.ReplicasFor(origin, key) }},
					{"LookupFrom", 1, func(j int, key string) { _, _, _ = d.LookupFrom(origin, key, replica[j]) }},
				} {
					if got := perOp(c.call); got > c.max {
						t.Errorf("%s(%s): %v allocs/op, want <= %v", c.op, pair, got, c.max)
					}
				}
			}
			if longest < d.replica+3 {
				t.Fatalf("longest store took %d hops: no walk long enough to show the count is hop-independent", longest)
			}
			if st := d.RouteCacheStats(); st.Hits != 0 {
				t.Fatalf("route cache served %d hits: the fill path was not what ran", st.Hits)
			}

			// One canonical holder offline: the plan extends past it, so it
			// is no longer the shared canonical slice.
			key := "key-0"
			canonical := replicaNames(d, key)
			if err := net.SetOnline(canonical[1], false); err != nil {
				t.Fatal(err)
			}
			defer net.SetOnline(canonical[1], true)
			plan, _, err := d.ReplicasFor(origin, key)
			if err != nil || len(plan) != d.replica+1 {
				t.Fatalf("ReplicasFor with %s offline = %v, %v: want the %d canonical names and one extension", canonical[1], plan, err, d.replica)
			}
			if got := testing.AllocsPerRun(50, func() { _, _, _ = d.ReplicasFor(origin, key) }); got > 1 {
				t.Errorf("ReplicasFor with a canonical holder offline: %v allocs/op, want <= 1", got)
			}
		})
	}
}
