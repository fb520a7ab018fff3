package federation

import (
	"errors"
	"fmt"
	"testing"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

func build(t *testing.T, n int, cfg Config) (*Federation, *simnet.Network, []simnet.NodeID) {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(4))
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("user-%d", i))
	}
	f, err := New(net, names, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f, net, names
}

func TestStoreLookupAcrossServers(t *testing.T) {
	f, _, names := build(t, 20, Config{Servers: 4})
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := f.Store(string(names[i%len(names)]), key, []byte(key+"-v")); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%d", i)
		got, _, err := f.Lookup(string(names[(i*3)%len(names)]), key)
		if err != nil || string(got) != key+"-v" {
			t.Fatalf("Lookup(%s): %v %q", key, err, got)
		}
	}
}

func TestConstantHops(t *testing.T) {
	// client -> home -> owner: at most 2 hops regardless of scale.
	worst := func(n int) int {
		f, _, names := build(t, n, Config{Servers: 8})
		f.Store(string(names[0]), "k", []byte("v"))
		w := 0
		for _, o := range names[:10] {
			_, st, err := f.Lookup(string(o), "k")
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			if st.Hops > w {
				w = st.Hops
			}
		}
		return w
	}
	if w := worst(20); w > 2 {
		t.Fatalf("hops = %d", w)
	}
	if w := worst(500); w > 2 {
		t.Fatalf("hops = %d at scale", w)
	}
}

func TestNoGlobalView(t *testing.T) {
	// The architecture's point: no single server holds all keys.
	f, _, names := build(t, 10, Config{Servers: 4})
	for i := 0; i < 40; i++ {
		f.Store(string(names[i%10]), fmt.Sprintf("k%d", i), []byte("v"))
	}
	for _, s := range f.servers {
		s.mu.Lock()
		n := len(s.data)
		s.mu.Unlock()
		if n == 40 {
			t.Fatalf("server %s holds a complete global view", s.name)
		}
	}
}

func TestServerFailure(t *testing.T) {
	f, net, names := build(t, 10, Config{Servers: 4})
	f.Store(string(names[0]), "k", []byte("v"))
	owner := f.ownerOf("k")
	net.SetOnline(owner.name, false)
	if _, _, err := f.Lookup(string(names[1]), "k"); err == nil {
		t.Fatal("lookup succeeded with owning server offline")
	}
}

func TestHomeServerFailureCutsClient(t *testing.T) {
	f, net, names := build(t, 10, Config{Servers: 4})
	home, err := f.home(names[0])
	if err != nil {
		t.Fatalf("home: %v", err)
	}
	net.SetOnline(home, false)
	if _, err := f.Store(string(names[0]), "k", []byte("v")); err == nil {
		t.Fatal("store via offline home server succeeded")
	}
}

func TestLookupMissing(t *testing.T) {
	f, _, names := build(t, 5, DefaultConfig())
	if _, _, err := f.Lookup(string(names[0]), "missing"); !errors.Is(err, overlay.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestUnknownOrigin(t *testing.T) {
	f, _, _ := build(t, 5, DefaultConfig())
	if _, err := f.Store("stranger", "k", nil); err == nil {
		t.Fatal("Store from stranger succeeded")
	}
}

func TestServerNames(t *testing.T) {
	f, _, _ := build(t, 5, Config{Servers: 3})
	if got := len(f.servers); got != 3 {
		t.Fatalf("%d servers, want 3", got)
	}
}

func TestEmptyFederation(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	if _, err := New(net, nil, DefaultConfig()); !errors.Is(err, overlay.ErrNoNodes) {
		t.Fatalf("got %v, want ErrNoNodes", err)
	}
}
