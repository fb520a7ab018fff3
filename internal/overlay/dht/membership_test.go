package dht

import (
	"fmt"
	"sync"
	"testing"

	"godosn/internal/overlay/simnet"
)

func TestJoinPreservesKeys(t *testing.T) {
	d, _, names := buildDHT(t, 16, Config{ReplicationFactor: 1})
	for i := 0; i < 40; i++ {
		if _, err := d.Store(string(names[i%16]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	for j := 0; j < 8; j++ {
		if err := d.Join(simnet.NodeID(fmt.Sprintf("joiner-%d", j))); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if d.Size() != 24 {
		t.Fatalf("Size = %d", d.Size())
	}
	for i := 0; i < 40; i++ {
		got, _, err := d.Lookup(string(names[(i*3)%16]), fmt.Sprintf("k%d", i))
		if err != nil || string(got) != "v" {
			t.Fatalf("key k%d lost after joins: %v", i, err)
		}
	}
	// New nodes participate fully.
	if _, err := d.Store("joiner-0", "new-key", []byte("nv")); err != nil {
		t.Fatalf("Store from joiner: %v", err)
	}
	if got, _, err := d.Lookup("joiner-3", "new-key"); err != nil || string(got) != "nv" {
		t.Fatalf("Lookup from joiner: %v", err)
	}
}

func TestLeavePreservesKeys(t *testing.T) {
	d, _, names := buildDHT(t, 16, Config{ReplicationFactor: 1})
	for i := 0; i < 40; i++ {
		d.Store(string(names[i%16]), fmt.Sprintf("k%d", i), []byte("v"))
	}
	// Graceful departures with handoff.
	for _, leaver := range []simnet.NodeID{names[2], names[7], names[11]} {
		if err := d.Leave(leaver); err != nil {
			t.Fatalf("Leave(%s): %v", leaver, err)
		}
	}
	if d.Size() != 13 {
		t.Fatalf("Size = %d", d.Size())
	}
	origin := names[0]
	for i := 0; i < 40; i++ {
		got, _, err := d.Lookup(string(origin), fmt.Sprintf("k%d", i))
		if err != nil || string(got) != "v" {
			t.Fatalf("key k%d lost after leaves: %v", i, err)
		}
	}
}

func TestJoinLeaveChurnCycle(t *testing.T) {
	d, _, names := buildDHT(t, 8, Config{ReplicationFactor: 1})
	d.Store(string(names[0]), "stable", []byte("v"))
	for round := 0; round < 5; round++ {
		j := simnet.NodeID(fmt.Sprintf("cycler-%d", round))
		if err := d.Join(j); err != nil {
			t.Fatalf("Join: %v", err)
		}
		if got, _, err := d.Lookup(string(names[1]), "stable"); err != nil || string(got) != "v" {
			t.Fatalf("round %d after join: %v", round, err)
		}
		if err := d.Leave(j); err != nil {
			t.Fatalf("Leave: %v", err)
		}
		if got, _, err := d.Lookup(string(names[1]), "stable"); err != nil || string(got) != "v" {
			t.Fatalf("round %d after leave: %v", round, err)
		}
	}
}

func TestJoinDuplicate(t *testing.T) {
	d, _, names := buildDHT(t, 4, Config{})
	if err := d.Join(names[0]); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestLeaveUnknownAndLast(t *testing.T) {
	d, _, names := buildDHT(t, 2, Config{})
	if err := d.Leave("ghost"); err == nil {
		t.Fatal("unknown leave accepted")
	}
	if err := d.Leave(names[0]); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := d.Leave(names[1]); err == nil {
		t.Fatal("last node allowed to leave")
	}
}

// TestMembershipChangesRaceWithTraffic is the regression test for the
// finger-table race: Join and Leave used to rewrite every node's fingers in
// place while routing read them unlocked. Four clients store and read while
// a fifth goroutine cycles two extra nodes in and out of the ring; under
// -race this fails at the parent commit. Every acknowledged key must still
// be readable once the ring is quiet.
func TestMembershipChangesRaceWithTraffic(t *testing.T) {
	d, _, names := buildDHT(t, 16, Config{ReplicationFactor: 3})
	const clients, perClient = 4, 300
	acked := make([][]string, clients)
	var traffic sync.WaitGroup
	for c := 0; c < clients; c++ {
		traffic.Add(1)
		go func(c int) {
			defer traffic.Done()
			origin := string(names[c])
			for i := 0; i < perClient; i++ {
				key := fmt.Sprintf("c%d-k%d", c, i)
				if _, err := d.Store(origin, key, []byte(key)); err == nil {
					acked[c] = append(acked[c], key)
				}
				if i > 0 {
					_, _, _ = d.Lookup(origin, fmt.Sprintf("c%d-k%d", c, i/2))
				}
			}
		}(c)
	}
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for cycle := 0; ; cycle++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fresh names each cycle: a departed node stays registered
			// (offline) with the network and cannot join again.
			a := simnet.NodeID(fmt.Sprintf("extra-%d-a", cycle))
			b := simnet.NodeID(fmt.Sprintf("extra-%d-b", cycle))
			for _, step := range []error{d.Join(a), d.Join(b), d.Leave(a), d.Leave(b)} {
				if step != nil {
					t.Errorf("cycle %d: %v", cycle, step)
					return
				}
			}
		}
	}()
	traffic.Wait()
	close(stop)
	<-churned
	if d.Size() != 16 {
		t.Fatalf("Size = %d after every extra node left, want 16", d.Size())
	}
	for c, keys := range acked {
		if len(keys) == 0 {
			t.Fatalf("client %d had no store acknowledged", c)
		}
		for _, key := range keys {
			got, _, err := d.Lookup(string(names[(c+5)%16]), key)
			if err != nil || string(got) != key {
				t.Fatalf("acked key %s unreadable after churn: %q, %v", key, got, err)
			}
		}
	}
}
