package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
)

func batchFixture(n int) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("b%02d", i)
		vals[i] = []byte("good-" + keys[i])
	}
	return keys, vals
}

// The batched read path must agree byte-for-byte with the single-key path
// on a clean network, at FanoutWorkers 1 and 8, while spending far fewer
// messages than the key-by-key loop.
func TestResilientBatchMatchesSequential(t *testing.T) {
	keys, vals := batchFixture(64)
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net := simnet.New(simnet.Config{Seed: 91})
			names := make([]simnet.NodeID, 32)
			for i := range names {
				names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
			}
			d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3, FanoutWorkers: workers})
			if err != nil {
				t.Fatalf("dht.New: %v", err)
			}
			kv := Wrap(d, DefaultConfig(91))
			origin := string(names[0])
			errs, _, err := kv.PutBatch(origin, keys, vals)
			if err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			for i, e := range errs {
				if e != nil {
					t.Fatalf("PutBatch key %s: %v", keys[i], e)
				}
			}
			var seq overlay.OpStats
			for i, key := range keys {
				v, st, err := kv.Lookup(origin, key)
				if err != nil {
					t.Fatalf("Lookup(%s): %v", key, err)
				}
				if !bytes.Equal(v, vals[i]) {
					t.Fatalf("Lookup(%s) = %q, want %q", key, v, vals[i])
				}
				seq.Add(&st)
			}
			// Repeated keys collapse to one resolution that every position
			// asking for the key receives.
			probe := append(append([]string(nil), keys...), keys[5], keys[0], keys[5])
			want := append(append([][]byte(nil), vals...), vals[5], vals[0], vals[5])
			results, bat, err := kv.GetBatch(origin, probe)
			if err != nil {
				t.Fatalf("GetBatch: %v", err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("GetBatch key %s: %v", probe[i], r.Err)
				}
				if !bytes.Equal(r.Value, want[i]) {
					t.Fatalf("GetBatch key %s at %d = %q, want %q", probe[i], i, r.Value, want[i])
				}
			}
			if seq.Messages < 3*bat.Messages {
				t.Fatalf("batch saved only %.2fx messages (seq %d, batch %d), want >= 3x",
					float64(seq.Messages)/float64(bat.Messages), seq.Messages, bat.Messages)
			}
			m := kv.Metrics()
			if m.Batches != 2 || m.BatchKeys != len(keys)+len(probe) {
				t.Fatalf("batch accounting %+v, want 2 batches over %d keys", m, len(keys)+len(probe))
			}
			if m.BatchFallbacks != 0 {
				t.Fatalf("%d fallbacks on a lossless network", m.BatchFallbacks)
			}
		})
	}
}

// The ISSUE's fault-isolation scenario: one replica corrupting every reply
// and one node shedding under load, inside a 64-key batch. Every key must
// still come back with verified honest bytes; only the keys served by the
// faulty nodes take the single-key rescue path, and the rest of the batch
// rides the shared transport untouched.
func TestBatchFaultIsolationCorruptAndOverloaded(t *testing.T) {
	keys, vals := batchFixture(64)
	d, net, names := buildDHT(t, 24, 37, 0, 3)
	cfg := DefaultConfig(37)
	cfg.Verify = func(key string, value []byte) error {
		if !bytes.Equal(value, []byte("good-"+key)) {
			return errors.New("not the stored value")
		}
		return nil
	}
	kv := Wrap(d, cfg)
	origin := string(names[0])
	if _, _, err := kv.PutBatch(origin, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	// The corrupter is the first-probed replica of keys[0]; the overloaded
	// node is the first-probed replica of some other key's group.
	replicas0, _, err := d.ReplicasFor(origin, keys[0])
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	corrupter := replicas0[0]
	hot, hotKey := "", ""
	for _, key := range keys[1:] {
		reps, _, err := d.ReplicasFor(origin, key)
		if err != nil {
			t.Fatalf("ReplicasFor: %v", err)
		}
		if reps[0] != corrupter && reps[0] != origin {
			hot, hotKey = reps[0], key
			break
		}
	}
	if hot == "" {
		t.Fatal("no second replica group found; fixture proves nothing")
	}
	if corrupter == origin {
		origin = string(names[1])
		if origin == corrupter || origin == hot {
			origin = string(names[2])
		}
	}
	if err := net.SetByzantine(simnet.NodeID(corrupter), simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	if err := net.SetCapacity(simnet.NodeID(hot), simnet.CapacityConfig{PerTick: 1, QueueDepth: 0}); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	// Drain the hot node's one token so every batch envelope it receives
	// sheds deterministically.
	if _, _, err := d.LookupFrom(origin, hotKey, hot); err != nil {
		t.Fatalf("draining lookup: %v", err)
	}

	results, _, err := kv.GetBatch(origin, keys)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("key %s failed despite honest reachable replicas: %v", keys[i], r.Err)
		}
		if !bytes.Equal(r.Value, vals[i]) {
			t.Fatalf("key %s surfaced corrupted bytes %q", keys[i], r.Value)
		}
	}
	m := kv.Metrics()
	if m.BatchFallbacks == 0 {
		t.Fatal("rate-1 corrupter triggered zero batch fallbacks")
	}
	if m.BatchFallbacks >= len(keys) {
		t.Fatalf("%d of %d keys fell back; faults were not isolated to their groups", m.BatchFallbacks, len(keys))
	}
	if m.CorruptReads == 0 {
		t.Fatal("no corrupt read was detected and attributed")
	}
	if net.Overload().Sheds == 0 {
		t.Fatal("overloaded node shed nothing; capacity fixture proves nothing")
	}
}

// Wrapping a plain KV (no BatchKV) must still satisfy the batch contract:
// every key takes the single-key path and nothing counts as a rescue.
func TestBatchOverPlainKV(t *testing.T) {
	inner := &fakeKV{}
	kv := Wrap(inner, DefaultConfig(3))
	keys := []string{"a", "b", "c"}
	vals := [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	errs, _, err := kv.PutBatch("o", keys, vals)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if inner.stores != len(keys) {
		t.Fatalf("PutBatch stored %d of %d keys through the plain KV", inner.stores, len(keys))
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("PutBatch key %s: %v", keys[i], e)
		}
	}
	results, _, err := kv.GetBatch("o", keys)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, r := range results {
		if r.Err != nil || string(r.Value) != "v" {
			t.Fatalf("GetBatch key %s = %q, %v", keys[i], r.Value, r.Err)
		}
	}
	m := kv.Metrics()
	if m.Batches != 2 || m.BatchFallbacks != 0 {
		t.Fatalf("batch accounting %+v, want 2 batches with zero rescues", m)
	}
}
