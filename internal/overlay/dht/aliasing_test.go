package dht

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay/simnet"
)

// Regression tests for byte-slice aliasing on the read and membership
// paths: a caller mutating bytes it handed in or got back must never reach
// a node's stored state, and no two nodes' stores may share backing arrays
// (a handoff that aliased them would let one node's corruption silently
// become another's).

func aliasDHT(t *testing.T, peers int) (*DHT, []simnet.NodeID, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 55})
	names := make([]simnet.NodeID, peers)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, names, net
}

func TestStoreDetachesCallerSlice(t *testing.T) {
	d, names, _ := aliasDHT(t, 12)
	client := string(names[0])
	buf := []byte("caller-owned buffer")
	orig := append([]byte(nil), buf...)
	if _, err := d.Store(client, "k", buf); err != nil {
		t.Fatalf("Store: %v", err)
	}
	buf[0] ^= 0xFF
	v, _, err := d.Lookup(client, "k")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if !bytes.Equal(v, orig) {
		t.Fatal("mutating the Store slice corrupted the stored value")
	}
}

func TestLookupAndLookupFromReturnDetachedBytes(t *testing.T) {
	d, names, _ := aliasDHT(t, 12)
	client := string(names[0])
	orig := []byte("stored value bytes")
	if _, err := d.Store(client, "k", append([]byte(nil), orig...)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, _, err := d.Lookup(client, "k")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	v[0] ^= 0xFF
	if v2, _, err := d.Lookup(client, "k"); err != nil || !bytes.Equal(v2, orig) {
		t.Fatalf("mutating a Lookup result corrupted a re-read: %v %q", err, v2)
	}
	replicas, _, err := d.ReplicasFor(client, "k")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	for _, r := range replicas {
		rv, _, err := d.LookupFrom(client, "k", r)
		if err != nil {
			t.Fatalf("LookupFrom(%s): %v", r, err)
		}
		rv[1] ^= 0xFF
	}
	for _, r := range replicas {
		rv, _, err := d.LookupFrom(client, "k", r)
		if err != nil || !bytes.Equal(rv, orig) {
			t.Fatalf("mutating a LookupFrom result corrupted replica %s: %v %q", r, err, rv)
		}
	}
}

func TestReturnedValuesOutliveTheirFrame(t *testing.T) {
	// The frame an operation borrowed is zeroed and handed to the next one
	// — on one goroutine, the very same frame. Bytes a read returned must be
	// nothing a later operation's requests or replies are written over.
	d, names, _ := aliasDHT(t, 12)
	client := string(names[0])
	orig := []byte("bytes that belong to the reader")
	if _, err := d.Store(client, "k", orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, _, err := d.Lookup(client, "k")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	rv, _, err := d.LookupFrom(client, "k", string(replicaNames(d, "k")[1]))
	if err != nil {
		t.Fatalf("LookupFrom: %v", err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("other-%d", i%40)
		if _, err := d.Store(client, key, []byte(fmt.Sprintf("another value, number %d", i))); err != nil {
			t.Fatalf("Store(%s): %v", key, err)
		}
		if _, _, err := d.Lookup(client, key); err != nil {
			t.Fatalf("Lookup(%s): %v", key, err)
		}
		if _, _, err := d.LookupFrom(client, key, string(replicaNames(d, key)[0])); err != nil {
			t.Fatalf("LookupFrom(%s): %v", key, err)
		}
	}
	if !bytes.Equal(v, orig) || !bytes.Equal(rv, orig) {
		t.Fatalf("1000 later operations changed returned values: %q / %q", v, rv)
	}
}

func TestConcurrentOperationsNeverShareAReply(t *testing.T) {
	// Two clients on one DHT, over a route cache small enough that they keep
	// filling and coalescing on each other's keys: every value read must be
	// the one stored under the key asked for. Under -race this is also the
	// check that no frame or call record is ever in two hands.
	d, _, names := buildDHT(t, 16, Config{ReplicationFactor: 3, RouteCache: cache.Config{Capacity: 8}})
	valueOf := func(key string) []byte { return []byte(strings.Repeat(key+"|", 4)) }
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("shared-%d", i)
		if _, err := d.Store(string(names[0]), keys[i], valueOf(keys[i])); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := string(names[1+c])
			for i := 0; i < 2000; i++ {
				key := keys[(i*(5+2*c)+c)%len(keys)]
				want := valueOf(key)
				if v, _, err := d.Lookup(client, key); err != nil || !bytes.Equal(v, want) {
					t.Errorf("client %d: Lookup(%s) = %q, %v", c, key, v, err)
					return
				}
				replicas, _, err := d.ReplicasFor(client, key)
				if err != nil {
					t.Errorf("client %d: ReplicasFor(%s): %v", c, key, err)
					return
				}
				if v, _, err := d.LookupFrom(client, key, replicas[i%len(replicas)]); err != nil || !bytes.Equal(v, want) {
					t.Errorf("client %d: LookupFrom(%s) = %q, %v", c, key, v, err)
					return
				}
				if _, err := d.Store(client, key, want); err != nil {
					t.Errorf("client %d: Store(%s): %v", c, key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestMembershipHandoffNeverAliasesStores(t *testing.T) {
	d, names, _ := aliasDHT(t, 12)
	client := string(names[0])
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if _, err := d.Store(client, keys[i], []byte("replicated value")); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	// Join and Leave move key ranges between nodes — the handoffs most at
	// risk of sharing backing arrays.
	if err := d.Join("joiner"); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := d.Leave(names[5]); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	// Corrupt every copy each node holds, one node at a time, and verify
	// no other node's copy moves with it: stores must be fully independent.
	all := append([]string{"joiner"}, func() []string {
		out := make([]string, 0, len(names))
		for _, n := range names {
			if n != names[5] {
				out = append(out, string(n))
			}
		}
		return out
	}()...)
	for _, key := range keys {
		var holders []string
		for _, n := range all {
			if d.Holds(n, key) {
				holders = append(holders, n)
			}
		}
		if len(holders) < 2 {
			continue
		}
		victim := holders[0]
		d.CorruptStored(victim, key, func(b []byte) []byte {
			b[0] ^= 0xFF
			return b
		})
		for _, other := range holders[1:] {
			v, _, err := d.LookupFrom(client, key, other)
			if err != nil {
				t.Fatalf("LookupFrom(%s, %s): %v", other, key, err)
			}
			if !bytes.Equal(v, []byte("replicated value")) {
				t.Fatalf("corrupting %s's copy of %s bled into %s's copy — stores share backing arrays", victim, key, other)
			}
		}
		// Heal the victim back so later keys see clean state.
		d.CorruptStored(victim, key, func(b []byte) []byte {
			b[0] ^= 0xFF
			return b
		})
	}
}

func TestReadsSurviveOverwriteAndCompaction(t *testing.T) {
	// Bytes a read returned belong to the reader: neither an overwrite of
	// the key nor the log rewrite that enough overwrites force may reach
	// them, whichever read path handed them out.
	d, names, _ := aliasDHT(t, 12)
	client := string(names[0])
	orig := bytes.Repeat([]byte("first version "), 3000) // 42 KB: over one chunk
	if _, err := d.Store(client, "k", orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas := replicaNames(d, "k")
	var reads [][]byte
	v, _, err := d.Lookup(client, "k")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	reads = append(reads, v)
	for _, r := range replicas {
		rv, _, err := d.LookupFrom(client, "k", string(r))
		if err != nil {
			t.Fatalf("LookupFrom(%s): %v", r, err)
		}
		reads = append(reads, rv)
	}
	batch, _, err := d.GetBatch(client, []string{"k", "absent"})
	if err != nil || batch[0].Err != nil {
		t.Fatalf("GetBatch: %v %v", err, batch[0].Err)
	}
	reads = append(reads, batch[0].Value)

	// Each overwrite leaves 42 KB dead on every replica; from the second on
	// the dead bytes outweigh both the live record and a chunk, so every
	// replica rewrites its log at least once.
	rewritten := make(map[simnet.NodeID]bool)
	for round := 0; round < 4; round++ {
		next := bytes.Repeat([]byte{byte('a' + round)}, len(orig))
		if _, err := d.Store(client, "k", next); err != nil {
			t.Fatalf("Store: %v", err)
		}
		for _, r := range replicas {
			n := d.view().names[r]
			n.mu.Lock()
			if n.data.logged == n.data.live {
				rewritten[r] = true
			}
			n.mu.Unlock()
		}
	}
	if len(rewritten) != len(replicas) {
		t.Fatalf("only %d of %d replicas rewrote their log; the test proves nothing about compaction", len(rewritten), len(replicas))
	}
	for i, got := range reads {
		if !bytes.Equal(got, orig) {
			t.Fatalf("read %d changed after the key was overwritten and the log rewritten", i)
		}
	}
}

func TestCorruptStoredTouchesOneReplicaOnly(t *testing.T) {
	d, names, _ := aliasDHT(t, 12)
	orig := []byte("replicated value")
	if _, err := d.Store(string(names[0]), "k", orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas := replicaNames(d, "k")
	if len(replicas) != 3 {
		t.Fatalf("want 3 replicas, got %v", replicas)
	}
	before, _ := d.StoredCopy(string(replicas[0]), "k")
	if !d.CorruptStored(string(replicas[0]), "k", func(b []byte) []byte {
		for i := range b {
			b[i] ^= 0xFF
		}
		return b
	}) {
		t.Fatal("CorruptStored: victim does not hold the key")
	}
	if !bytes.Equal(before, orig) {
		t.Fatal("CorruptStored reached a StoredCopy taken earlier")
	}
	if got, _ := d.StoredCopy(string(replicas[0]), "k"); bytes.Equal(got, orig) {
		t.Fatal("CorruptStored left the victim's copy intact")
	}
	for _, r := range replicas[1:] {
		if got, ok := d.StoredCopy(string(r), "k"); !ok || !bytes.Equal(got, orig) {
			t.Fatalf("corrupting %s changed %s's copy to %q", replicas[0], r, got)
		}
	}
}

func TestFetchCopiesWhileStoreBatchAppends(t *testing.T) {
	// The fetch handlers copy a value out of the log after releasing the
	// node lock, while store_batch appends to the same chunk, overwrites the
	// very key and forces log rewrites: a reader must see one whole version
	// (run under -race, this is also the data-race check on the log).
	d, names, _ := aliasDHT(t, 4)
	n := d.view().names[names[1]]
	handle := d.handlerFor(n)
	version := func(b byte) []byte { return bytes.Repeat([]byte{b}, 3000) }
	n.data.put("hot", keyTop("hot"), version(0))

	const writes = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= writes; i++ {
			cold := fmt.Sprintf("cold-%d", i%7)
			req := &storeBatchReq{
				Keys:   []string{"hot", cold},
				Tops:   []uint32{keyTop("hot"), keyTop(cold)},
				Values: [][]byte{version(byte(i)), version(byte(i))},
			}
			if _, err := handle(&simnet.Trace{}, names[0], simnet.Message{Kind: kindStoreBatch, Payload: req}); err != nil {
				t.Errorf("store_batch: %v", err)
				return
			}
		}
	}()
	whole := func(v []byte) bool {
		return len(v) == 3000 && bytes.Count(v, v[:1]) == len(v)
	}
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		reply, err := handle(&simnet.Trace{}, names[0], simnet.Message{Kind: kindFetch, Payload: &fetchReq{Key: "hot"}})
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if resp := reply.Payload.(*fetchResp); !resp.Found || !whole(resp.Value) {
			t.Fatal("fetch returned a torn value")
		}
		reply, err = handle(&simnet.Trace{}, names[0], simnet.Message{Kind: kindFetchBatch, Payload: &fetchBatchReq{Keys: []string{"hot", "cold-3"}}})
		if err != nil {
			t.Fatalf("fetch_batch: %v", err)
		}
		if resp := reply.Payload.(*fetchBatchResp); !resp.Found[0] || !whole(resp.Values[0]) || (resp.Found[1] && !whole(resp.Values[1])) {
			t.Fatal("fetch_batch returned a torn value")
		}
	}
}
