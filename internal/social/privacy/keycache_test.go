package privacy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/crypto/symmetric"
	"godosn/internal/telemetry"
)

// Envelope-key cache coherence tests: repeat decrypts must skip the
// public-key phase, but a revoked member's warm cache must never open
// post-revocation content and bytes must match the uncached path exactly.

func keyCacheConfig(seed int64) cache.Config {
	return cache.Config{Capacity: 64, Shards: 4, Seed: seed}
}

func buildHybrid(t testing.TB, f *fixture) *HybridGroup {
	t.Helper()
	owner, err := pubkey.NewSigningKeyPair()
	if err != nil {
		t.Fatalf("NewSigningKeyPair: %v", err)
	}
	g, err := NewHybridGroup("hyb", f.registry, owner)
	if err != nil {
		t.Fatalf("NewHybridGroup: %v", err)
	}
	return g
}

func buildIBBE(t testing.TB) *IBBEGroup {
	t.Helper()
	pkg, err := ibe.NewPKG()
	if err != nil {
		t.Fatalf("NewPKG: %v", err)
	}
	return NewIBBEGroup("ibbe", pkg)
}

func buildABE(t testing.TB) *ABEGroup {
	t.Helper()
	auth, err := abe.NewAuthority()
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	g, err := NewABEGroup("abe", auth, "(member)")
	if err != nil {
		t.Fatalf("NewABEGroup: %v", err)
	}
	return g
}

func TestHybridKeyCacheHitsAndRevocation(t *testing.T) {
	f := newFixture(t, "alice", "bob")
	g := buildHybrid(t, f)
	g.SetKeyCache(keyCacheConfig(71))
	for _, m := range []string{"alice", "bob"} {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add(%s): %v", m, err)
		}
	}
	env, err := g.Encrypt([]byte("hello"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for i := 0; i < 3; i++ {
		pt, err := g.Decrypt(f.users["bob"], env)
		if err != nil || !bytes.Equal(pt, []byte("hello")) {
			t.Fatalf("Decrypt %d: %q, %v", i, pt, err)
		}
	}
	st := g.KeyCacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v; want 1 miss, 2 hits", st)
	}

	// Revoke bob: his warm cache must not open anything the group publishes
	// afterwards, and the remaining member re-fills under the new epoch.
	if _, err := g.Remove("bob"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	env2, err := g.Encrypt([]byte("post-revocation"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := g.Decrypt(f.users["bob"], env2); !errors.Is(err, ErrNotMember) {
		t.Fatalf("revoked member decrypt = %v; want ErrNotMember", err)
	}
	if g.KeyCacheStats().Invalidations == 0 {
		t.Fatalf("Remove did not bump the key cache generation")
	}
	misses := g.KeyCacheStats().Misses
	pt, err := g.Decrypt(f.users["alice"], env2)
	if err != nil || !bytes.Equal(pt, []byte("post-revocation")) {
		t.Fatalf("Decrypt after revoke: %q, %v", pt, err)
	}
	if g.KeyCacheStats().Misses != misses+1 {
		t.Fatalf("post-revocation decrypt should re-fill, not hit: %+v", g.KeyCacheStats())
	}
}

func TestIBBEKeyCacheHitsAndRemovedMemberDenied(t *testing.T) {
	f := newFixture(t, "alice", "bob")
	g := buildIBBE(t)
	g.SetKeyCache(keyCacheConfig(72))
	for _, m := range []string{"alice", "bob"} {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add(%s): %v", m, err)
		}
	}
	env, err := g.Encrypt([]byte("broadcast"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for i := 0; i < 3; i++ {
		pt, err := g.Decrypt(f.users["bob"], env)
		if err != nil || !bytes.Equal(pt, []byte("broadcast")) {
			t.Fatalf("Decrypt %d: %q, %v", i, pt, err)
		}
	}
	if st := g.KeyCacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v; want 1 miss, 2 hits", st)
	}
	// Distinct broadcasts get distinct cache entries (content-tagged keys).
	env2, err := g.Encrypt([]byte("another"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := g.Decrypt(f.users["bob"], env2); err != nil {
		t.Fatalf("Decrypt env2: %v", err)
	}
	if st := g.KeyCacheStats(); st.Misses != 2 {
		t.Fatalf("second broadcast should miss separately: %+v", st)
	}

	// Remove bob: his session keys are warm, yet the group must deny him.
	if _, err := g.Remove("bob"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := g.Decrypt(f.users["bob"], env); !errors.Is(err, ErrNotMember) {
		t.Fatalf("removed member decrypt = %v; want ErrNotMember", err)
	}
	if g.KeyCacheStats().Invalidations == 0 {
		t.Fatalf("Remove did not bump the key cache generation")
	}
}

func TestABEKeyCacheHitsAndRevokedReaderDenied(t *testing.T) {
	f := newFixture(t, "alice", "bob")
	g := buildABE(t)
	g.SetKeyCache(keyCacheConfig(73))
	for _, m := range []string{"alice", "bob"} {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add(%s): %v", m, err)
		}
	}
	env, err := g.Encrypt([]byte("policy-guarded"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for i := 0; i < 3; i++ {
		pt, err := g.Decrypt(f.users["bob"], env)
		if err != nil || !bytes.Equal(pt, []byte("policy-guarded")) {
			t.Fatalf("Decrypt %d: %q, %v", i, pt, err)
		}
	}
	if st := g.KeyCacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v; want 1 miss, 2 hits", st)
	}

	// Revoke bob: the authority re-keys and the archive re-encrypts. Bob's
	// warm payload keys must not open the re-encrypted archive.
	if _, err := g.Remove("bob"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if g.KeyCacheStats().Invalidations == 0 {
		t.Fatalf("Remove did not bump the key cache generation")
	}
	rearchived := g.Archive()[0]
	if _, err := g.Decrypt(f.users["bob"], rearchived); !errors.Is(err, ErrNotMember) {
		t.Fatalf("revoked reader decrypt = %v; want ErrNotMember", err)
	}
	pt, err := g.Decrypt(f.users["alice"], rearchived)
	if err != nil || !bytes.Equal(pt, []byte("policy-guarded")) {
		t.Fatalf("remaining member decrypt after rekey: %q, %v", pt, err)
	}
}

// TestKeyCacheResultsMatchUncached drives each scheme's decrypt with and
// without a key cache over the same envelopes: identical bytes either way.
func TestKeyCacheResultsMatchUncached(t *testing.T) {
	f := newFixture(t, "alice", "bob", "carol")
	type cachedGroup interface {
		Group
		SetKeyCache(cache.Config)
	}
	groups := map[string]cachedGroup{
		"hybrid": buildHybrid(t, f),
		"ibbe":   buildIBBE(t),
		"abe":    buildABE(t),
	}
	for name, g := range groups {
		for _, m := range []string{"alice", "bob", "carol"} {
			if err := g.Add(m); err != nil {
				t.Fatalf("%s Add(%s): %v", name, m, err)
			}
		}
		var envs []Envelope
		for i := 0; i < 5; i++ {
			env, err := g.Encrypt([]byte(fmt.Sprintf("%s-msg-%d", name, i)))
			if err != nil {
				t.Fatalf("%s Encrypt: %v", name, err)
			}
			envs = append(envs, env)
		}
		// Uncached pass first, then enable the cache and decrypt twice more
		// (fill + hit): all three reads of each envelope must agree.
		for i, env := range envs {
			want, err := g.Decrypt(f.users["bob"], env)
			if err != nil {
				t.Fatalf("%s uncached Decrypt: %v", name, err)
			}
			g.SetKeyCache(keyCacheConfig(74))
			for pass := 0; pass < 2; pass++ {
				got, err := g.Decrypt(f.users["bob"], env)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s cached Decrypt (env %d, pass %d): %q, %v; want %q", name, i, pass, got, err, want)
				}
			}
			g.SetKeyCache(cache.Config{})
		}
	}
}

func TestKeyCacheTelemetryCounters(t *testing.T) {
	f := newFixture(t, "alice")
	g := buildHybrid(t, f)
	g.SetKeyCache(keyCacheConfig(75))
	reg := telemetry.NewRegistry()
	g.keyCache.SetTelemetry(reg, "privacy_hybrid_key_cache")
	if err := g.Add("alice"); err != nil {
		t.Fatalf("Add: %v", err)
	}
	env, err := g.Encrypt([]byte("metered"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := g.Decrypt(f.users["alice"], env); err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
	}
	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["privacy_hybrid_key_cache_hits_total"] != 2 || got["privacy_hybrid_key_cache_misses_total"] != 1 {
		t.Fatalf("key cache counters not mirrored: %v", got)
	}
}

// TestKeyCacheKeyFormat pins the three cache-key builders to the strings the
// schemes have always used: the cache hashes the key to pick a shard, so a
// different spelling would move placement, eviction order and hit ratio.
func TestKeyCacheKeyFormat(t *testing.T) {
	legacyTag := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:8])
	}
	readers := []string{"", "bob", "g07-m3", "a/b", strings.Repeat("long-name-", 20)}
	epochs := []uint64{0, 1, 42, math.MaxUint64}
	bodies := [][]byte{nil, []byte("body"), bytes.Repeat([]byte{0xEE}, 300)}
	for _, r := range readers {
		for _, e := range epochs {
			if got, want := string(epochKey(nil, r, e)), fmt.Sprintf("%s/%d", r, e); got != want {
				t.Errorf("epochKey = %q, want %q", got, want)
			}
			for _, b := range bodies {
				if got, want := string(epochContentKey(nil, r, e, b)), fmt.Sprintf("%s/%d/%s", r, e, legacyTag(b)); got != want {
					t.Errorf("epochContentKey = %q, want %q", got, want)
				}
			}
		}
		for _, b := range bodies {
			if got, want := string(contentKey(nil, r, b)), r+"/"+legacyTag(b); got != want {
				t.Errorf("contentKey = %q, want %q", got, want)
			}
		}
	}
}

// TestHybridForeignKeyFailsClosed gives one member a wrap of some other key.
// What it unwraps is not the data key, so the group's prepared AEAD must not
// serve it: group posts fail closed for it, cold and with the key cached.
func TestHybridForeignKeyFailsClosed(t *testing.T) {
	f := newFixture(t, "alice", "bob")
	g := buildHybrid(t, f)
	g.SetKeyCache(keyCacheConfig(73))
	for _, m := range []string{"alice", "bob"} {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add(%s): %v", m, err)
		}
	}
	id, err := f.registry.Lookup("bob")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := symmetric.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if g.keyWraps["bob"], err = g.sender.Encrypt(id.Encryption, foreign); err != nil {
		t.Fatal(err)
	}

	env, err := g.Encrypt([]byte("group post"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	for i := 0; i < 2; i++ { // cold, then with bob's foreign key cached
		if pt, err := g.Decrypt(f.users["bob"], env); err == nil {
			t.Fatalf("read %d: holder of a foreign key opened a group post: %q", i, pt)
		}
	}
	if pt, err := g.Decrypt(f.users["alice"], env); err != nil || string(pt) != "group post" {
		t.Fatalf("alice: %q, %v", pt, err)
	}
}
