package resilience_test

import (
	"bytes"
	"fmt"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/social/identity"
	"godosn/internal/social/privacy"
)

// privatePost is one sealed private post on the ring: its group, a reader
// who may open it, its key and its plaintext.
type privatePost struct {
	g      privacy.Group
	reader *identity.User
	key    string
	plain  []byte
}

// privateRing stores one sealed post per two-phase scheme (hybrid, ABE,
// IBBE; 8-member groups with envelope-key caches, 200-byte posts) on a
// 48-node DHT, behind a verified KV with a value cache: the private feed's
// read path.
func privateRing(tb testing.TB) (*resilience.KV, string, []privatePost) {
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
	cfg.Cache = cache.Config{Capacity: 64, Seed: 1}
	kv := resilience.Wrap(d, cfg)
	origin := string(names[0])

	registry := identity.NewRegistry()
	owner, err := pubkey.NewSigningKeyPair()
	if err != nil {
		tb.Fatal(err)
	}
	hybrid, err := privacy.NewHybridGroup("hybrid", registry, owner)
	if err != nil {
		tb.Fatal(err)
	}
	authority, err := abe.NewAuthority()
	if err != nil {
		tb.Fatal(err)
	}
	abeGroup, err := privacy.NewABEGroup("abe", authority, "(member)")
	if err != nil {
		tb.Fatal(err)
	}
	pkg, err := ibe.NewPKG()
	if err != nil {
		tb.Fatal(err)
	}
	var posts []privatePost
	for _, g := range []interface {
		privacy.Group
		SetKeyCache(cache.Config)
	}{hybrid, abeGroup, privacy.NewIBBEGroup("ibbe", pkg)} {
		g.SetKeyCache(cache.Config{Capacity: 64, Seed: 1})
		var reader *identity.User
		for m := 0; m < 8; m++ {
			u, err := identity.NewUser(fmt.Sprintf("%s-m%d", g.Name(), m))
			if err != nil {
				tb.Fatal(err)
			}
			if err := registry.Register(u); err != nil {
				tb.Fatal(err)
			}
			if err := g.Add(u.Name); err != nil {
				tb.Fatal(err)
			}
			reader = u
		}
		p := privatePost{g: g, reader: reader, key: "post/" + g.Name(), plain: bytes.Repeat([]byte("p"), 200)}
		env, err := g.Encrypt(p.plain)
		if err != nil {
			tb.Fatalf("%s: Encrypt: %v", g.Name(), err)
		}
		wire, err := privacy.Marshal(env)
		if err != nil {
			tb.Fatalf("%s: Marshal: %v", g.Name(), err)
		}
		if _, err := kv.Store(origin, p.key, scrub.Seal(p.key, wire)); err != nil {
			tb.Fatalf("Store(%s): %v", p.key, err)
		}
		posts = append(posts, p)
	}
	return kv, origin, posts
}

// privateRead is one private read as a reader does it: a verified lookup,
// the record opened to its envelope bytes, the envelope decoded and
// decrypted.
func privateRead(kv *resilience.KV, origin string, p privatePost) ([]byte, error) {
	rec, _, err := kv.Lookup(origin, p.key)
	if err != nil {
		return nil, err
	}
	wire, err := scrub.Open(p.key, rec)
	if err != nil {
		return nil, err
	}
	env, err := privacy.Unmarshal(wire)
	if err != nil {
		return nil, err
	}
	return p.g.Decrypt(p.reader, env)
}

// sameArray reports whether a and b start at the same byte of memory.
func sameArray(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestValueCacheSharesCachedBytes pins the read-only contract of
// KV.Lookup and KV.GetBatch: a cache fill keeps the fetched value and every
// hit hands out the cached backing array itself. A batch transport value is
// a view into its replica group's array, so that pass alone caches a copy.
// A private read (scrub.Open, Unmarshal, Decrypt) leaves the cached bytes
// as they were.
func TestValueCacheSharesCachedBytes(t *testing.T) {
	kv, origin, posts := privateRing(t)
	for _, p := range posts {
		fill, _, err := kv.Lookup(origin, p.key)
		if err != nil {
			t.Fatalf("%s: Lookup: %v", p.key, err)
		}
		hit, _, err := kv.Lookup(origin, p.key)
		if err != nil {
			t.Fatalf("%s: Lookup: %v", p.key, err)
		}
		if !sameArray(fill, hit) {
			t.Errorf("%s: the fill cached a copy, not the fetched value", p.key)
		}
		brs, _, err := kv.GetBatch(origin, []string{p.key, p.key})
		if err != nil {
			t.Fatalf("%s: GetBatch: %v", p.key, err)
		}
		for i, r := range brs {
			if r.Err != nil || !sameArray(r.Value, hit) {
				t.Errorf("%s: GetBatch slot %d (err %v) is not the cached array", p.key, i, r.Err)
			}
		}

		cached := bytes.Clone(hit)
		pt, err := privateRead(kv, origin, p)
		if err != nil || !bytes.Equal(pt, p.plain) {
			t.Fatalf("%s: private read = %q, %v", p.key, pt, err)
		}
		if !bytes.Equal(hit, cached) {
			t.Errorf("%s: a private read wrote the cached bytes", p.key)
		}
		if again, _, err := kv.Lookup(origin, p.key); err != nil || !sameArray(again, hit) || !bytes.Equal(again, cached) {
			t.Errorf("%s: the cached value changed after a private read (err %v)", p.key, err)
		}

		kv.InvalidateValue(p.key)
		brs, _, err = kv.GetBatch(origin, []string{p.key})
		if err != nil || brs[0].Err != nil {
			t.Fatalf("%s: cold GetBatch: %v, %v", p.key, err, brs[0].Err)
		}
		hit, _, err = kv.Lookup(origin, p.key)
		if err != nil {
			t.Fatalf("%s: Lookup: %v", p.key, err)
		}
		if sameArray(hit, brs[0].Value) || !bytes.Equal(hit, cached) {
			t.Errorf("%s: the batch transport pass cached its replica group's view", p.key)
		}
	}
	if st := kv.ValueCacheStats(); st.Hits == 0 {
		t.Fatalf("no value-cache hits: %+v", st)
	}
}

// TestPrivateReadAllocations pins a warm private read per scheme: a
// value-cache hit, scrub.Open, Unmarshal and an envelope-key-cache hit in
// Decrypt. The lookup, the open and the key-cache lookup allocate nothing;
// what is left is the decoder's one block (payload, list and names), the
// one-shot AES-GCM of an ABE or IBBE body and the plaintext.
func TestPrivateReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	kv, origin, posts := privateRing(t)
	budget := map[string]float64{"hybrid": 2, "abe": 4, "ibbe": 4}
	for _, p := range posts {
		for i := 0; i < 2; i++ { // fill both caches
			if pt, err := privateRead(kv, origin, p); err != nil || !bytes.Equal(pt, p.plain) {
				t.Fatalf("%s: private read = %q, %v", p.key, pt, err)
			}
		}
		hits := kv.ValueCacheStats().Hits
		got := testing.AllocsPerRun(100, func() {
			if _, err := privateRead(kv, origin, p); err != nil {
				t.Fatal(err)
			}
		})
		if kv.ValueCacheStats().Hits == hits {
			t.Fatalf("%s: the measured reads missed the value cache", p.key)
		}
		if want := budget[p.g.Name()]; got > want {
			t.Errorf("%s: %v allocs per warm private read, want <= %v", p.g.Name(), got, want)
		}
		t.Logf("%s: %v allocs per warm private read", p.g.Name(), got)
	}
}

// BenchmarkPrivateRead times TestPrivateReadAllocations' warm read per
// scheme: a value-cache hit, scrub.Open, Unmarshal and Decrypt with the
// envelope key cached — the benchmark harness's private read in miniature.
func BenchmarkPrivateRead(b *testing.B) {
	kv, origin, posts := privateRing(b)
	for _, p := range posts {
		b.Run(p.g.Name(), func(b *testing.B) {
			for i := 0; i < 2; i++ { // fill both caches
				if _, err := privateRead(kv, origin, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := privateRead(kv, origin, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
