package dht

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"godosn/internal/overlay/simnet"
)

// buildLossyDHT creates a DHT over a network with the given loss rate.
func buildLossyDHT(t *testing.T, n int, loss float64, replicas int) (*DHT, []simnet.NodeID) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 21})
	net.SetLossRate(loss)
	names := make([]simnet.NodeID, n)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: replicas})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, names
}

func TestLookupUnderMessageLoss(t *testing.T) {
	// With 10% message loss some lookups fail, but the overlay must not
	// wedge, and replication + rerouting keep the success rate usable.
	d, names := buildLossyDHT(t, 64, 0.10, 3)
	stored := 0
	for i := 0; i < 40; i++ {
		if _, err := d.Store(string(names[i%len(names)]), fmt.Sprintf("k%d", i), []byte("v")); err == nil {
			stored++
		}
	}
	if stored < 30 {
		t.Fatalf("only %d/40 stores succeeded under 10%% loss", stored)
	}
	success := 0
	attempts := 0
	for i := 0; i < 40; i++ {
		for try := 0; try < 3; try++ { // clients retry on loss
			attempts++
			if _, _, err := d.Lookup(string(names[(i*7+1)%len(names)]), fmt.Sprintf("k%d", i)); err == nil {
				success++
				break
			}
		}
	}
	if success < 30 {
		t.Fatalf("only %d/40 lookups (with retry) succeeded under 10%% loss", success)
	}
}

func TestLookupUnderMassChurn(t *testing.T) {
	// Take 40% of nodes offline after storing with replication 4: most
	// keys should still resolve via surviving replicas and rerouting.
	net := simnet.New(simnet.Config{Seed: 5})
	names := make([]simnet.NodeID, 50)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 30; i++ {
		if _, err := d.Store(string(names[i%50]), fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	rng := net.Rand("churn-test")
	offline := map[simnet.NodeID]bool{}
	for len(offline) < 20 {
		victim := names[rng.Intn(len(names))]
		if !offline[victim] {
			offline[victim] = true
			net.SetOnline(victim, false)
		}
	}
	var origin simnet.NodeID
	for _, name := range names {
		if !offline[name] {
			origin = name
			break
		}
	}
	found := 0
	for i := 0; i < 30; i++ {
		if _, _, err := d.Lookup(string(origin), fmt.Sprintf("k%d", i)); err == nil {
			found++
		}
	}
	if found < 24 { // 80% despite 40% of the network being gone
		t.Fatalf("only %d/30 keys survived 40%% churn with 4 replicas", found)
	}
}

func TestPartitionIsolatesLookups(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 3})
	names := make([]simnet.NodeID, 20)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := d.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	// Partition the origin away from everyone else.
	net.SetPartition(names[5], 1)
	if _, _, err := d.Lookup(string(names[5]), "k"); err == nil {
		// Only acceptable if node-5 itself holds the key locally.
		kid := hashID("k")
		if d.view().byID[d.view().successorID(kid)].name != names[5] {
			t.Fatal("partitioned node resolved a remote key")
		}
	}
	// Heal the partition.
	net.SetPartition(names[5], 0)
	if _, _, err := d.Lookup(string(names[5]), "k"); err != nil {
		t.Fatalf("lookup after healing: %v", err)
	}
}

func TestByzantineReplicaLiesOnACopyOfTheFrame(t *testing.T) {
	// Both read paths borrow a frame whose fetch slot the reply points into.
	// A bit-flipping replica must still get its lie through to the caller of
	// each operation, and the replica's store keeps the honest bytes. The
	// single-RPC view of the same frame is
	// TestByzantineBitFlipOnPointerReplyCorruptsAPrivateCopy.
	d, net, names := buildDHT(t, 12, Config{ReplicationFactor: 3})
	client := names[0]
	orig := []byte("the honest stored value")
	if _, err := d.Store(string(client), "k", orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	liar := replicaNames(d, "k")[0]
	if err := net.SetByzantine(liar, simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	if v, _, err := d.Lookup(string(client), "k"); err != nil || bytes.Equal(v, orig) {
		t.Fatalf("Lookup through a lying root returned %q, %v", v, err)
	}
	if v, _, err := d.LookupFrom(string(client), "k", string(liar)); err != nil || bytes.Equal(v, orig) {
		t.Fatalf("LookupFrom the liar returned %q, %v", v, err)
	}
	if stored, _ := d.StoredCopy(string(liar), "k"); !bytes.Equal(stored, orig) {
		t.Fatal("the lie was written into the replica's store")
	}
	if got := net.CorruptedReplies(); got != 2 {
		t.Fatalf("CorruptedReplies = %d, want 2", got)
	}
}

func TestHandlerRejectsPayloadsThatAreNotRequestPointers(t *testing.T) {
	d, _, names := buildDHT(t, 4, Config{ReplicationFactor: 1})
	handle := d.handlerFor(d.view().names[names[1]])
	for kind, payloads := range map[string][]any{
		kindFindSuccessor: {findSuccessorReq{Key: 1}, (*findSuccessorReq)(nil), nil},
		kindStore:         {storeReq{Key: "k"}, (*storeReq)(nil), nil},
		kindFetch:         {fetchReq{Key: "k"}, (*fetchReq)(nil), &storeReq{Key: "k"}},
		kindStoreBatch:    {storeBatchReq{Keys: []string{"k"}, Values: [][]byte{nil}}, (*storeBatchReq)(nil), nil},
		kindFetchBatch:    {fetchBatchReq{Keys: []string{"k"}}, (*fetchBatchReq)(nil), &storeBatchReq{}},
	} {
		for _, payload := range payloads {
			_, err := handle(&simnet.Trace{}, names[0], simnet.Message{Kind: kind, Payload: payload})
			if err == nil || !strings.Contains(err.Error(), "bad payload for "+kind) {
				t.Errorf("%s with a %T payload: %v, want the bad-payload error", kind, payload, err)
			}
		}
	}
}

// TestShortWriteHook pins which writes the hook names: a Store or a PutBatch
// group acked by some but not all of the replicas it was sent to. A write
// every replica acked, and one no replica acked (the caller sees the
// failure), name nothing. PutBatch names its keys after the outcome fold, in
// group order, so the sequence is the same at any FanoutWorkers.
func TestShortWriteHook(t *testing.T) {
	keys, vals := batchKeys(96)
	var prev []string
	for wi, workers := range []int{1, 8} {
		d, net, names := buildDHT(t, 24, Config{ReplicationFactor: 3, FanoutWorkers: workers})
		client := string(names[0])
		// Three ring neighbours go offline: groups rooted at the first lose
		// every replica, groups rooted just before it lose one or two.
		v := d.view()
		offline := map[uint64]bool{}
		for i := 5; len(offline) < 3; i++ {
			if n := v.byID[v.ring[i%len(v.ring)]]; string(n.name) != client {
				offline[n.id] = true
				if err := net.SetOnline(n.name, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		missed := func(key string) int {
			m := 0
			for _, rid := range v.successorsOf(nil, hashID(key), d.replica) {
				if offline[rid] {
					m++
				}
			}
			return m
		}
		var hinted []string
		d.SetShortWriteHook(func(key string) { hinted = append(hinted, key) })

		want := map[string]bool{}
		shown := [4]int{}
		for i, key := range keys {
			m := missed(key)
			shown[m]++
			if m > 0 && m < d.replica {
				want[key] = true
			}
			if i < 32 {
				hinted = hinted[:0]
				_, err := d.Store(client, key, vals[i])
				if (err != nil) != (m == d.replica) {
					t.Fatalf("Store(%s) with %d of %d replicas offline: %v", key, m, d.replica, err)
				}
				if got := len(hinted) == 1 && hinted[0] == key; got != want[key] {
					t.Fatalf("Store(%s) with %d of %d replicas offline hinted %v", key, m, d.replica, hinted)
				}
			}
		}
		if shown[0] == 0 || shown[1]+shown[2] == 0 || shown[3] == 0 {
			t.Fatalf("keys by replicas offline = %v: every case needs a key", shown)
		}

		hinted = nil
		errs, _, err := d.PutBatch(client, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, key := range hinted {
			if !want[key] || seen[key] {
				t.Fatalf("PutBatch hinted %s (%d replicas offline, hinted before: %v)", key, missed(key), seen[key])
			}
			seen[key] = true
		}
		for i, key := range keys {
			if want[key] && (!seen[key] || errs[i] != nil) {
				t.Fatalf("PutBatch(%s) acked short: err %v, hinted %v", key, errs[i], seen[key])
			}
		}
		if wi > 0 && !reflect.DeepEqual(hinted, prev) {
			t.Fatalf("hints differ across FanoutWorkers:\n%v\nvs\n%v", hinted, prev)
		}
		prev = hinted
	}
}
