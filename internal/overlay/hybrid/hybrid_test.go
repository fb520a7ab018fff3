package hybrid

import (
	"fmt"
	"testing"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
)

func build(t *testing.T, n int) (*Overlay, *simnet.Network, []simnet.NodeID) {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(6))
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	// Ring-of-friends social graph.
	friends := make(map[simnet.NodeID][]simnet.NodeID, n)
	for i, name := range names {
		friends[name] = []simnet.NodeID{
			names[(i+1)%n], names[(i+2)%n], names[(i+n-1)%n],
		}
	}
	o, err := New(net, names, friends, dht.Config{ReplicationFactor: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o, net, names
}

func TestStoreLookup(t *testing.T) {
	o, _, names := build(t, 24)
	if _, err := o.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got, _, err := o.Lookup(string(names[9]), "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Lookup: %v %q", err, got)
	}
}

func TestRepeatLookupHitsCache(t *testing.T) {
	o, _, names := build(t, 24)
	o.Store(string(names[0]), "k", []byte("v"))
	_, first, err := o.Lookup(string(names[9]), "k")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	_, second, err := o.Lookup(string(names[9]), "k")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if second.Messages != 0 {
		t.Fatalf("second lookup cost %d messages, want 0 (local cache)", second.Messages)
	}
	if first.Messages == 0 {
		t.Fatal("first lookup was free; cache effect untestable")
	}
}

func TestFriendCacheCheaperThanDHT(t *testing.T) {
	o, _, names := build(t, 64)
	o.Store(string(names[0]), "hot", []byte("v"))
	// node-10 fetches via DHT, populating its cache.
	if _, _, err := o.Lookup(string(names[10]), "hot"); err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	// node-9 has node-10 as a friend: the friend-cache probe should beat a
	// full DHT lookup in hops.
	_, viaFriend, err := o.Lookup(string(names[9]), "hot")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if viaFriend.Hops > 3 {
		t.Fatalf("friend-cache lookup took %d hops", viaFriend.Hops)
	}
}

// TestStoreInvalidatesCachedCopies: a re-store supersedes the copies the
// social caches hold, so neither the node that cached the old value nor a
// friend probing that node's cache reads it again.
func TestStoreInvalidatesCachedCopies(t *testing.T) {
	o, _, names := build(t, 64)
	origin := string(names[0])
	if _, err := o.Store(origin, "post", []byte("v1")); err != nil {
		t.Fatalf("Store v1: %v", err)
	}
	if got, _, err := o.Lookup(string(names[10]), "post"); err != nil || string(got) != "v1" {
		t.Fatalf("node-10 Lookup v1: %q, %v", got, err)
	}
	if _, err := o.Store(origin, "post", []byte("v2")); err != nil {
		t.Fatalf("Store v2: %v", err)
	}
	// node-9 probes node-10's cache first.
	for _, i := range []int{9, 10, 0} {
		if got, _, err := o.Lookup(string(names[i]), "post"); err != nil || string(got) != "v2" {
			t.Fatalf("node-%d Lookup after the re-store: %q, %v; want v2", i, got, err)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	o, _, names := build(t, 8)
	origin := string(names[0])
	for i := 0; i <= cacheSize; i++ {
		if _, err := o.Store(origin, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	c := o.nodes[names[0]].cache
	if size := c.Len(); size != cacheSize {
		t.Fatalf("cache holds %d entries, bound %d", size, cacheSize)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("the oldest key survived a full cache")
	}
	if _, ok := c.Get(fmt.Sprintf("k%d", cacheSize)); !ok {
		t.Fatal("the newest key was evicted")
	}
}

func TestMissingKey(t *testing.T) {
	o, _, names := build(t, 8)
	if _, _, err := o.Lookup(string(names[0]), "missing"); err == nil {
		t.Fatal("missing key found")
	}
}

func TestUnknownOrigin(t *testing.T) {
	o, _, _ := build(t, 4)
	if _, _, err := o.Lookup("stranger", "k"); err == nil {
		t.Fatal("Lookup from stranger succeeded")
	}
}

func TestOfflineFriendsFallBackToDHT(t *testing.T) {
	o, net, names := build(t, 32)
	o.Store(string(names[0]), "k", []byte("v"))
	// Take node-9's friends' caches offline; DHT must still serve.
	for _, f := range []int{10, 11, 8} {
		net.SetOnline(CacheIdentity(names[f]), false)
	}
	got, _, err := o.Lookup(string(names[9]), "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Lookup with offline friends: %v", err)
	}
}
