package resilience_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"godosn/internal/crypto/symmetric"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// verifiedRing stores a sealed record for each of keys on a 48-node DHT and
// wraps it the way a verified deployment reads: hedged, with scrub.Check as
// the integrity gate.
func verifiedRing(tb testing.TB, keys int) (*resilience.KV, *dht.DHT, *simnet.Network, string, []string) {
	tb.Helper()
	net := simnet.New(simnet.DefaultConfig(1))
	names := make([]simnet.NodeID, 48)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		tb.Fatalf("dht.New: %v", err)
	}
	cfg := resilience.DefaultConfig(1)
	cfg.Verify = scrub.Check
	kv := resilience.Wrap(d, cfg)
	origin := string(names[0])
	out := make([]string, keys)
	for i := range out {
		out[i] = fmt.Sprintf("post-%d", i)
		if _, err := kv.Store(origin, out[i], scrub.Seal(out[i], payloadOf(out[i]))); err != nil {
			tb.Fatalf("Store(%s): %v", out[i], err)
		}
	}
	return kv, d, net, origin, out
}

// faultKey picks the first of keys whose canonical holders exclude origin
// and takes its last canonical holder offline, so every plan for it extends
// past that holder. With skip set it also opens the first holder's circuit,
// so every read skips it and the middle holder serves. hold re-reports the
// failure that keeps that circuit open: run it before each read, so that no
// read is the half-open probe.
func faultKey(tb testing.TB, kv *resilience.KV, d *dht.DHT, net *simnet.Network, origin string, keys []string, skip bool) (key string, hold func()) {
	tb.Helper()
	for _, key := range keys {
		plan := append([]string(nil), d.PlanReplicas(key)...)
		if slices.Contains(plan, origin) {
			continue
		}
		if err := net.SetOnline(simnet.NodeID(plan[2]), false); err != nil {
			tb.Fatal(err)
		}
		hold = func() {}
		if skip {
			hold = func() { kv.Breaker().Report(plan[0], false) }
		}
		for i := 0; i < 3; i++ {
			hold()
		}
		if skip && !kv.Breaker().Open(plan[0]) {
			tb.Fatalf("%s's circuit did not open", plan[0])
		}
		if got := d.PlanReplicas(key); len(got) != 4 || !slices.Equal(got[:3], plan) {
			tb.Fatalf("PlanReplicas(%s) = %v with %s offline, want %v and one more", key, got, plan[2], plan)
		}
		for i := 0; i < 3; i++ {
			hold()
			if got, err := openRead(kv, origin, key); err != nil || !bytes.Equal(got, payloadOf(key)) {
				tb.Fatalf("read %s with %s offline = %q, %v", key, plan[2], got, err)
			}
		}
		return key, hold
	}
	tb.Fatalf("every key's holders include %s", origin)
	return "", nil
}

func payloadOf(key string) []byte { return []byte("the content of " + key) }

// openRead is one verified read as a reader does it: a hedged lookup that
// scrub.Check gates, then the record opened to its payload.
func openRead(kv *resilience.KV, origin, key string) ([]byte, error) {
	rec, _, err := kv.Lookup(origin, key)
	if err != nil {
		return nil, err
	}
	return scrub.Open(key, rec)
}

func TestVerifiedLookupAllocations(t *testing.T) {
	// A verified read on a healthy ring allocates the value the fetch
	// handler copies out for the reader and nothing else: the replica plan
	// is the ring view's shared slice, the breaker filter reads it as given,
	// and Open returns a view into the record. A read around a holder that
	// is offline or skipped by the breaker allocates exactly as much: the
	// extended plan is the segment's shared memo and the filter works on
	// the stack. before, when set, runs ahead of every read and is measured
	// with it.
	perRead := func(t *testing.T, kv *resilience.KV, origin string, keys []string, before func()) float64 {
		if raceEnabled {
			t.Skip("sync.Pool drops frames at random under the race detector")
		}
		return testing.AllocsPerRun(50, func() {
			for _, key := range keys {
				if before != nil {
					before()
				}
				_, _ = openRead(kv, origin, key)
			}
		}) / float64(len(keys))
	}
	kv, _, _, origin, keys := verifiedRing(t, 8)
	for _, key := range keys {
		if got, err := openRead(kv, origin, key); err != nil || !bytes.Equal(got, payloadOf(key)) {
			t.Fatalf("read %s = %q, %v", key, got, err)
		}
	}
	healthy := func(t *testing.T) float64 { return perRead(t, kv, origin, keys, nil) }
	t.Run("healthy", func(t *testing.T) {
		if got := healthy(t); got > 1 {
			t.Errorf("Lookup + scrub.Open: %v allocs per read, want <= 1", got)
		}
	})
	t.Run("breaker-open", func(t *testing.T) {
		// An open circuit on a canonical holder makes the read filter the
		// plan, into an array on its stack: the shared plan the DHT hands
		// every other caller is left as it was. Re-reporting the failure
		// before each read restarts the cooldown, so no read is the
		// half-open probe.
		kv, d, _, origin, keys := verifiedRing(t, 1)
		key := keys[0]
		plan := append([]string(nil), d.PlanReplicas(key)...)
		holdOpen := func() { kv.Breaker().Report(plan[0], false) }
		for i := 0; i < 3; i++ {
			holdOpen()
		}
		if !kv.Breaker().Open(plan[0]) {
			t.Fatalf("%s's circuit did not open", plan[0])
		}
		for i := 0; i < 3; i++ {
			holdOpen()
			if got, err := openRead(kv, origin, key); err != nil || !bytes.Equal(got, payloadOf(key)) {
				t.Fatalf("read %s with %s's circuit open = %q, %v", key, plan[0], got, err)
			}
		}
		if got := kv.Metrics().BreakerSkips; got != 3 {
			t.Fatalf("%d breaker skips over 3 reads, want 3", got)
		}
		if got := d.PlanReplicas(key); !reflect.DeepEqual(got, plan) {
			t.Fatalf("PlanReplicas(%s) = %v after filtered reads, want %v", key, got, plan)
		}
		if got, want := perRead(t, kv, origin, keys, holdOpen), healthy(t); got != want {
			t.Errorf("Lookup + scrub.Open with a circuit open: %v allocs per read, want %v as healthy", got, want)
		}
	})
	for _, skip := range []bool{false, true} {
		name := "holder-offline"
		if skip {
			name = "holder-offline-and-one-skipped"
		}
		t.Run(name, func(t *testing.T) {
			kv, d, net, origin, keys := verifiedRing(t, 8)
			key, hold := faultKey(t, kv, d, net, origin, keys, skip)
			if got, want := perRead(t, kv, origin, []string{key}, hold), healthy(t); got != want {
				t.Errorf("Lookup + scrub.Open around a lost holder (skip %v): %v allocs per read, want %v as healthy", skip, got, want)
			}
		})
	}
}

// TestSealedStreamAllocations composes one sealed stream write and read the
// way the benchmark harness does: the write is Sealer.Seal bound to the key
// as associated data, scrub.Seal and Store; the read is Lookup, scrub.Open
// and Sealer.Open. Each allocates what it hands on and nothing for the
// key's []byte conversion: the write the ciphertext and the record (plus a
// fraction from the store's log growing under rewrites of the same keys),
// the read the fetched value and the plaintext.
func TestSealedStreamAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	kv, _, _, origin, keys := verifiedRing(t, 8)
	key, err := symmetric.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := symmetric.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, len(keys))
	for i, key := range keys {
		payloads[i] = payloadOf(key)
	}
	write := func(i int) error {
		ct, err := sealer.Seal(payloads[i], []byte(keys[i]))
		if err != nil {
			return err
		}
		_, err = kv.Store(origin, keys[i], scrub.Seal(keys[i], ct))
		return err
	}
	read := func(i int) ([]byte, error) {
		ct, err := openRead(kv, origin, keys[i])
		if err != nil {
			return nil, err
		}
		return sealer.Open(ct, []byte(keys[i]))
	}
	for i := range keys {
		if err := write(i); err != nil {
			t.Fatalf("write %s: %v", keys[i], err)
		}
		if got, err := read(i); err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("read %s = %q, %v", keys[i], got, err)
		}
	}
	perOp := func(op func(i int) error) float64 {
		return testing.AllocsPerRun(50, func() {
			for i := range keys {
				if err := op(i); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(keys))
	}
	if got := perOp(write); got > 2.25 {
		t.Errorf("sealed write: %v allocs per write, want <= 2.25", got)
	} else {
		t.Logf("sealed write: %v allocs per write", got)
	}
	if got := perOp(func(i int) error { _, err := read(i); return err }); got > 2 {
		t.Errorf("sealed read: %v allocs per read, want <= 2", got)
	} else {
		t.Logf("sealed read: %v allocs per read", got)
	}
}

// BenchmarkVerifiedLookup is one verified read on a 48-node ring: a hedged
// Lookup gated by scrub.Check, then scrub.Open. healthy reads 64 keys;
// faulted reads one key whose last canonical holder is offline and whose
// first is skipped by an open circuit.
func BenchmarkVerifiedLookup(b *testing.B) {
	b.Run("healthy", func(b *testing.B) {
		kv, _, _, origin, keys := verifiedRing(b, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := openRead(kv, origin, keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("faulted", func(b *testing.B) {
		kv, d, net, origin, keys := verifiedRing(b, 64)
		key, hold := faultKey(b, kv, d, net, origin, keys, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hold()
			if _, err := openRead(kv, origin, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}
