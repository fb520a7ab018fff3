package superpeer

import (
	"errors"
	"fmt"
	"testing"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

func build(t *testing.T, n int, cfg Config) (*Overlay, *simnet.Network, []simnet.NodeID) {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(9))
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("member-%d", i))
	}
	o, err := New(net, names, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o, net, names
}

func TestStoreLookupFromEveryNode(t *testing.T) {
	o, _, names := build(t, 30, DefaultConfig())
	if _, err := o.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	for _, origin := range names {
		got, _, err := o.Lookup(string(origin), "k")
		if err != nil || string(got) != "v" {
			t.Fatalf("Lookup from %s: %v", origin, err)
		}
	}
}

func TestConstantHopBound(t *testing.T) {
	// Semi-structured lookup is at most leaf->super->owner->back: hops must
	// not grow with network size.
	maxHops := func(n int) int {
		o, _, names := build(t, n, DefaultConfig())
		o.Store(string(names[0]), "k", []byte("v"))
		worst := 0
		for _, origin := range names[:10] {
			_, st, err := o.Lookup(string(origin), "k")
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			if st.Hops > worst {
				worst = st.Hops
			}
		}
		return worst
	}
	small := maxHops(20)
	large := maxHops(200)
	if large > 2 || small > 2 {
		t.Fatalf("hop bound exceeded: small=%d large=%d", small, large)
	}
}

func TestLookupMissing(t *testing.T) {
	o, _, names := build(t, 10, DefaultConfig())
	if _, _, err := o.Lookup(string(names[0]), "missing"); !errors.Is(err, overlay.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestSuperPeerFailureBreaksPartition(t *testing.T) {
	o, net, names := build(t, 40, Config{SuperPeerFraction: 0.1})
	o.Store(string(names[0]), "k", []byte("v"))
	owner := o.ownerOf("k")
	net.SetOnline(owner.name, false)
	failures := 0
	for _, origin := range names[:10] {
		if string(origin) == string(owner.name) {
			continue
		}
		if _, _, err := o.Lookup(string(origin), "k"); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no lookups failed despite owner super-peer being offline")
	}
}

func TestSingleSuperPeerMinimum(t *testing.T) {
	o, _, names := build(t, 5, Config{SuperPeerFraction: 0})
	if len(o.supers) != 1 {
		t.Fatalf("supers = %d, want 1", len(o.supers))
	}
	o.Store(string(names[0]), "k", []byte("v"))
	got, _, err := o.Lookup(string(names[4]), "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Lookup: %v", err)
	}
}

func TestUnknownOrigin(t *testing.T) {
	o, _, _ := build(t, 5, DefaultConfig())
	if _, err := o.Store("stranger", "k", nil); err == nil {
		t.Fatal("Store from stranger succeeded")
	}
}

func TestEmptyOverlay(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	if _, err := New(net, nil, DefaultConfig()); !errors.Is(err, overlay.ErrNoNodes) {
		t.Fatalf("got %v, want ErrNoNodes", err)
	}
}
