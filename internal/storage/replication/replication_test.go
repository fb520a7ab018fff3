package replication

import (
	"errors"
	"fmt"
	"testing"

	"godosn/internal/storage/store"
)

func newManager(t *testing.T, peers int) *Manager {
	t.Helper()
	m := NewManager(11)
	for i := 0; i < peers; i++ {
		m.AddPeer(fmt.Sprintf("peer-%d", i))
	}
	return m
}

func TestPlaceAndRetrieve(t *testing.T) {
	m := newManager(t, 10)
	obj := store.NewObject([]byte("payload"))
	set, err := m.Place("peer-0", obj, 3, RandomPeers)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(set) != 4 { // owner + 3
		t.Fatalf("replica set size %d", len(set))
	}
	got, served, err := m.Retrieve(obj.Ref)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if string(got.Data) != "payload" || served == "" {
		t.Fatalf("Retrieve returned %q from %q", got.Data, served)
	}
}

func TestRetrieveFallsBackToReplicas(t *testing.T) {
	m := newManager(t, 10)
	obj := store.NewObject([]byte("x"))
	set, _ := m.Place("peer-0", obj, 3, RandomPeers)
	// Take the owner offline; replicas must serve.
	m.SetOnline("peer-0", false)
	_, served, err := m.Retrieve(obj.Ref)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if served == "peer-0" {
		t.Fatal("offline owner served")
	}
	// Take everything offline.
	for _, name := range set {
		m.SetOnline(name, false)
	}
	if _, _, err := m.Retrieve(obj.Ref); !errors.Is(err, ErrNoneOnline) {
		t.Fatalf("got %v, want ErrNoneOnline", err)
	}
}

func TestFriendPlacement(t *testing.T) {
	m := newManager(t, 10)
	m.SetFriends("peer-0", []string{"peer-3", "peer-7"})
	obj := store.NewObject([]byte("x"))
	set, err := m.Place("peer-0", obj, 5, FriendPeers)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	for _, name := range set {
		if name != "peer-0" && name != "peer-3" && name != "peer-7" {
			t.Fatalf("non-friend %s in friend placement", name)
		}
	}
}

func TestProxyPlacement(t *testing.T) {
	m := newManager(t, 5)
	m.AddProxy("proxy-0")
	m.AddProxy("proxy-1")
	obj := store.NewObject([]byte("x"))
	set, err := m.Place("peer-0", obj, 2, ProxyPeers)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	proxies := 0
	for _, name := range set {
		if name == "proxy-0" || name == "proxy-1" {
			proxies++
		}
	}
	if proxies != 2 {
		t.Fatalf("placed on %d proxies, want 2", proxies)
	}
	// Proxies survive churn.
	m.ApplyChurn(0.0)
	if _, served, err := m.Retrieve(obj.Ref); err != nil || (served != "proxy-0" && served != "proxy-1") {
		t.Fatalf("proxy retrieval failed: %v (served %q)", err, served)
	}
}

func TestPlaceValidation(t *testing.T) {
	m := newManager(t, 3)
	obj := store.NewObject([]byte("x"))
	if _, err := m.Place("peer-0", obj, 0, RandomPeers); !errors.Is(err, ErrBadReplicas) {
		t.Fatalf("got %v, want ErrBadReplicas", err)
	}
	if _, err := m.Place("ghost", obj, 1, RandomPeers); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("got %v, want ErrUnknownPeer", err)
	}
}

func TestRetrieveUnknownObject(t *testing.T) {
	m := newManager(t, 3)
	if _, _, err := m.Retrieve(store.Ref("nothing")); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("got %v, want ErrNoReplicas", err)
	}
}

func TestSetOnlineUnknown(t *testing.T) {
	m := newManager(t, 1)
	if err := m.SetOnline("ghost", false); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("got %v, want ErrUnknownPeer", err)
	}
}

func TestAvailabilityIncreasesWithReplication(t *testing.T) {
	// E7's core shape: more replicas -> higher availability at fixed uptime.
	avail := func(k int) float64 {
		m := NewManager(42)
		for i := 0; i < 50; i++ {
			m.AddPeer(fmt.Sprintf("p%d", i))
		}
		obj := store.NewObject([]byte("content"))
		if _, err := m.Place("p0", obj, k, RandomPeers); err != nil {
			t.Fatalf("Place: %v", err)
		}
		return m.Availability(obj.Ref, 0.5, 400)
	}
	a1 := avail(1)
	a4 := avail(4)
	if a4 <= a1 {
		t.Fatalf("availability did not increase with replication: k=1 %.2f, k=4 %.2f", a1, a4)
	}
	if a4 < 0.85 {
		t.Fatalf("k=4 at 50%% uptime should be ~0.97, got %.2f", a4)
	}
}

func TestAvailabilityIncreasesWithUptime(t *testing.T) {
	m := NewManager(43)
	for i := 0; i < 50; i++ {
		m.AddPeer(fmt.Sprintf("p%d", i))
	}
	obj := store.NewObject([]byte("content"))
	m.Place("p0", obj, 2, RandomPeers)
	low := m.Availability(obj.Ref, 0.2, 300)
	high := m.Availability(obj.Ref, 0.9, 300)
	if high <= low {
		t.Fatalf("availability did not increase with uptime: %.2f vs %.2f", low, high)
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []PlacementPolicy{RandomPeers, FriendPeers, ProxyPeers, PlacementPolicy(9)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}
