package privacy

import (
	"bytes"
	"fmt"
	"testing"

	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/symmetric"
)

// The groups wrap through a reusable ECIES sender context and their members
// open through a receiver memo (pubkey.Sender, EncryptionKeyPair.Decrypt).
// Neither may weaken revocation: a revoked reader whose receiver memo AND
// envelope-key cache are warm — it has read from this very sender context —
// must not open post-revocation content, through the group or with the key
// material it walked away with; the remaining readers and a freshly added
// one must.

var contextMembers = []string{"alice", "bob", "carol"}

// warm fills g with contextMembers and has every member read two posts twice,
// warming each receiver memo and the key cache; it returns the second post.
// decryptBroadcast decrypts a broadcast as a listed recipient does:
// UnwrapSession followed by OpenBroadcast.
func decryptBroadcast(k *ibe.IdentityKey, b *ibe.Broadcast) ([]byte, error) {
	session, err := k.UnwrapSession(b)
	if err != nil {
		return nil, err
	}
	return ibe.OpenBroadcast(session, b)
}

func warm(t *testing.T, f *fixture, g keyCached) (before Envelope) {
	t.Helper()
	g.SetKeyCache(keyCacheConfig(91))
	for _, m := range contextMembers {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add(%s): %v", m, err)
		}
	}
	for i := 0; i < 2; i++ {
		env, err := g.Encrypt([]byte("before"))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		for _, m := range contextMembers {
			for read := 0; read < 2; read++ {
				if pt, err := g.Decrypt(f.users[m], env); err != nil || string(pt) != "before" {
					t.Fatalf("%s pre-revocation read: %q, %v", m, pt, err)
				}
			}
		}
		before = env
	}
	if st := g.KeyCacheStats(); st.Hits == 0 {
		t.Fatalf("key cache never hit while warming: %+v", st)
	}
	return before
}

// revokeBob removes bob, admits dave, publishes a post and checks who can
// read it through the group; it returns that post and the removal's report.
func revokeBob(t *testing.T, f *fixture, g keyCached) (after Envelope, report RevocationReport) {
	t.Helper()
	report, err := g.Remove("bob")
	if err != nil {
		t.Fatalf("Remove(bob): %v", err)
	}
	if err := g.Add("dave"); err != nil {
		t.Fatalf("Add(dave): %v", err)
	}
	after, err = g.Encrypt([]byte("after"))
	if err != nil {
		t.Fatalf("Encrypt after revocation: %v", err)
	}
	if _, err := g.Decrypt(f.users["bob"], after); err == nil {
		t.Fatal("revoked reader opened post-revocation content through the group")
	}
	for _, m := range []string{"alice", "carol", "dave"} {
		for read := 0; read < 2; read++ {
			if pt, err := g.Decrypt(f.users[m], after); err != nil || string(pt) != "after" {
				t.Fatalf("%s post-revocation read: %q, %v", m, pt, err)
			}
		}
	}
	return after, report
}

func TestHybridRevokedReaderWithWarmContext(t *testing.T) {
	f := newFixture(t, "alice", "bob", "carol", "dave")
	g := buildHybrid(t, f)
	warm(t, f, g)
	bobWrap := g.keyWraps["bob"]
	oldKey, err := f.users["bob"].Decrypt(bobWrap)
	if err != nil {
		t.Fatalf("bob unwrapping his data key: %v", err)
	}
	agreed := g.sender.Agreements()
	after, report := revokeBob(t, f, g)
	if report.RekeyedMembers != 2 || report.PublicKeyOps != 0 {
		t.Fatalf("report %+v: want 2 members re-keyed with no key agreement", report)
	}
	// The rekey wrapped the new data key under pairwise keys the context
	// already held: the revocation and the admission cost one agreement,
	// dave's.
	if got := g.sender.Agreements() - agreed; got != 1 {
		t.Fatalf("%d agreements for the revocation and the admission, want 1 (the new member)", got)
	}
	// Bob's memo is warm for the sender's ephemeral, which every other
	// member's wrap carries too: none may open under his pairwise key.
	if len(g.keyWraps) != 3 {
		t.Fatalf("%d key wraps after the revocation, want 3", len(g.keyWraps))
	}
	for m, wrap := range g.keyWraps {
		if !bytes.Equal(wrap[:65], bobWrap[:65]) {
			t.Fatalf("%s's wrap came from another ephemeral: bob's memo is not being exercised", m)
		}
		if _, err := f.users["bob"].Decrypt(wrap); err == nil {
			t.Fatalf("revoked reader unwrapped %s's copy of the new data key", m)
		}
	}
	if _, err := symmetric.Open(oldKey, after.Payload.(*symPayload).ct, g.ad()); err == nil {
		t.Fatal("the data key bob kept opens post-revocation content")
	}
}

func TestIBBERevokedReaderWithWarmContext(t *testing.T) {
	f := newFixture(t, "alice", "bob", "carol", "dave")
	g := buildIBBE(t)
	bobKey, err := g.pkg.Extract("bob")
	if err != nil {
		t.Fatalf("Extract(bob): %v", err)
	}
	before := warm(t, f, g)
	after, report := revokeBob(t, f, g)
	if !report.Free || report.PublicKeyOps != 0 {
		t.Fatalf("report %+v: IBBE removal is free", report)
	}

	// Removal stayed free, and cost the context nothing but bob's entry.
	if got := g.sender.Agreements(); got != 4 {
		t.Fatalf("%d agreements, want one per identity ever addressed (4)", got)
	}
	bobPK, err := g.pkg.DirectoryLookup("bob")
	if err != nil {
		t.Fatalf("DirectoryLookup(bob): %v", err)
	}
	if _, err := g.sender.Encrypt(bobPK, []byte("probe")); err != nil || g.sender.Agreements() != 5 {
		t.Fatalf("the context kept bob's pairwise key after his removal (%d agreements, %v)", g.sender.Agreements(), err)
	}
	b := after.Payload.(*ibe.Broadcast)
	if _, err := decryptBroadcast(bobKey, b); err == nil {
		t.Fatal("revoked identity key opened a post-revocation broadcast")
	}
	// Not being listed is backed by the keys: bob's memo is warm for this
	// sender's ephemeral, and still no listed member's wrap opens for him.
	for i, id := range b.Recipients {
		forged := &ibe.Broadcast{Recipients: []string{"bob"}, Ephemeral: b.Ephemeral, WrappedKeys: b.WrappedKeys[i : i+1], Body: b.Body}
		if _, err := decryptBroadcast(bobKey, forged); err == nil {
			t.Fatalf("revoked reader unwrapped %s's session key", id)
		}
	}
	// What was delivered to him stays readable, as with any scheme.
	if pt, err := decryptBroadcast(bobKey, before.Payload.(*ibe.Broadcast)); err != nil || string(pt) != "before" {
		t.Fatalf("pre-revocation broadcast: %q, %v", pt, err)
	}
}

func TestABERevokedReaderWithWarmContext(t *testing.T) {
	f := newFixture(t, "alice", "bob", "carol", "dave")
	g := buildABE(t)
	// A second group under the same authority, with its own sender context
	// and parameter snapshot, that learns of the re-key only by looking.
	other, err := NewABEGroup("other", g.authority, "(member)")
	if err != nil {
		t.Fatalf("NewABEGroup: %v", err)
	}
	other.SetKeyCache(keyCacheConfig(92))
	if err := other.Add("erin"); err != nil {
		t.Fatalf("other.Add: %v", err)
	}
	if _, err := other.Encrypt([]byte("warm the other context")); err != nil {
		t.Fatalf("other.Encrypt: %v", err)
	}
	staleSnapshot := other.snapshot

	warm(t, f, g)
	bobKey, oldParams := g.keys["bob"], g.snapshot
	after, report := revokeBob(t, f, g)
	if report.ReencryptedEnvelopes != 2 || report.PublicKeyOps != 1 {
		t.Fatalf("report %+v: want 2 envelopes re-encrypted under one new agreement", report)
	}
	// One attribute parameter before the revocation, its replacement after.
	if got := g.sender.Agreements(); got != 2 {
		t.Fatalf("%d agreements around one revocation, want 2 (one per attribute parameter)", got)
	}
	// The re-keyed parameter's pairwise key left the context with it:
	// wrapping to it again has to agree afresh.
	if _, err := abe.Encrypt(g.sender, oldParams, g.policy, []byte("probe")); err != nil || g.sender.Agreements() != 3 {
		t.Fatalf("the context kept the revoked parameter's pairwise key (%d agreements, %v)", g.sender.Agreements(), err)
	}
	// The key bob walked away with opens nothing sealed after the re-key,
	// warm attribute-secret memo or not.
	if _, err := bobKey.Decrypt(after.Payload.(*abe.Ciphertext)); err == nil {
		t.Fatal("revoked attribute key opened post-revocation content")
	}
	for i, env := range g.Archive() {
		if _, err := bobKey.Decrypt(env.Payload.(*abe.Ciphertext)); err == nil {
			t.Fatalf("revoked attribute key opened re-encrypted archive entry %d", i)
		}
	}

	// The other group wraps to the current parameters, not to its snapshot;
	// its member, holding a key from before g's revocations, is re-issued
	// one the way a deployment would on an epoch change.
	env, err := other.Encrypt([]byte("after their revocation"))
	if err != nil {
		t.Fatalf("other.Encrypt after g's revocation: %v", err)
	}
	if other.snapshot == staleSnapshot || env.Epoch != g.authority.Epoch() {
		t.Fatalf("other group sealed at epoch %d from a stale snapshot; authority is at %d", env.Epoch, g.authority.Epoch())
	}
	if _, err := bobKey.Decrypt(env.Payload.(*abe.Ciphertext)); err == nil {
		t.Fatal("revoked attribute key opened the other group's post-revocation content")
	}
	fresh, err := g.authority.IssueKey([]string{"member"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	if pt, err := fresh.Decrypt(env.Payload.(*abe.Ciphertext)); err != nil || string(pt) != "after their revocation" {
		t.Fatalf("current key on the other group's content: %q, %v", pt, err)
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestContextEncryptAllocations pins what a post costs at 8 members once the
// sender context is warm. What is left:
//   - hybrid (3): the sealed body, the slice header boxed into the
//     envelope's Payload, and the retained plaintext;
//   - IBBE (4): the broadcast with its wrap list, the one buffer holding
//     every wrap and the body, and the body's AES-GCM (2); the session key
//     stays on the stack and the recipients are the group's shared sorted
//     list;
//   - ABE (5): the ciphertext with its share, the one buffer holding the
//     policy text, the share wrap and the body, the body's AES-GCM (2) and
//     the retained plaintext; the seed is drawn into its wrap's slot and the
//     payload key stays on the stack.
//
// Under the race detector, which makes sync.Pool drop what is put back, the
// ABE post may allocate its pooled payload-key derivation state again (about
// one allocation a post on average, two allowed); the IBBE post allocates
// its session key's stack array, which the race build of crypto/rand moves
// to the heap.
func TestContextEncryptAllocations(t *testing.T) {
	names := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	for _, tc := range []struct {
		g       Group
		ceiling float64
	}{
		{buildHybrid(t, newFixture(t, names...)), 3},
		{buildIBBE(t), 4},
		{buildABE(t), 5},
	} {
		for _, m := range names {
			if err := tc.g.Add(m); err != nil {
				t.Fatalf("%s: Add(%s): %v", tc.g.Scheme(), m, err)
			}
		}
		post := bytes.Repeat([]byte("p"), 200)
		got := testing.AllocsPerRun(100, func() {
			if _, err := tc.g.Encrypt(post); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := tc.ceiling
		if raceEnabled {
			switch tc.g.Scheme() {
			case SchemeABE:
				ceiling += 2
			case SchemeIBBE:
				ceiling++
			}
		}
		if got > ceiling {
			t.Fatalf("%s Encrypt at %d members: %v allocs/op, ceiling %v", tc.g.Scheme(), len(names), got, ceiling)
		}
		t.Logf("%s Encrypt at %d members: %v allocs/op", tc.g.Scheme(), len(names), got)
	}
}

// TestNameBoundAllocations pins the two groups that bind their name as the
// body's associated data ([]byte(g.name)): the conversion stays on the
// caller's stack, so neither Encrypt nor Decrypt pays for it. One member
// keeps the public-key wraps serial, so the count does not depend on
// GOMAXPROCS. The Encrypt rows skip under -race, where the pooled ECIES and
// PRF states are dropped at random.
func TestNameBoundAllocations(t *testing.T) {
	f := newFixture(t, "m0")
	sub, err := NewSubstitutionGroup("substitution-group", NewDictionary(), [][]byte{[]byte("fake")})
	if err != nil {
		t.Fatalf("NewSubstitutionGroup: %v", err)
	}
	post := bytes.Repeat([]byte("p"), 200)
	for _, tc := range []struct {
		g                Group
		encrypt, decrypt float64
	}{
		{NewPublicKeyGroup("public-key-group", f.registry), 29, 4},
		{sub, 8, 4},
	} {
		if err := tc.g.Add("m0"); err != nil {
			t.Fatalf("%s: Add: %v", tc.g.Scheme(), err)
		}
		env, err := tc.g.Encrypt(post)
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", tc.g.Scheme(), err)
		}
		if !raceEnabled {
			if got := testing.AllocsPerRun(100, func() {
				if _, err := tc.g.Encrypt(post); err != nil {
					t.Fatal(err)
				}
			}); got > tc.encrypt {
				t.Errorf("%s Encrypt: %v allocs/op, ceiling %v", tc.g.Scheme(), got, tc.encrypt)
			}
		}
		if got := testing.AllocsPerRun(100, func() {
			if pt, err := tc.g.Decrypt(f.users["m0"], env); err != nil || !bytes.Equal(pt, post) {
				t.Fatalf("%s Decrypt = %d bytes, %v", tc.g.Scheme(), len(pt), err)
			}
		}); got > tc.decrypt {
			t.Errorf("%s Decrypt: %v allocs/op, ceiling %v", tc.g.Scheme(), got, tc.decrypt)
		}
	}
}

// TestABEColdOpenAllocations pins a reader's open without a key cache once
// its attribute secret's memo is warm (5): the opened share, the payload key
// RecoverKey returns, and the body open (AES-GCM 2 and the plaintext). A
// single-leaf policy's share is the seed, so no field element is built.
// Under the race detector the pooled derivation state may be allocated again
// (two allowed).
func TestABEColdOpenAllocations(t *testing.T) {
	g := buildABE(t)
	for _, m := range hotMembers {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add(%s): %v", m, err)
		}
	}
	env, err := g.Encrypt(hotPost)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	ct, key := env.Payload.(*abe.Ciphertext), g.keys[hotMembers[3]]
	open := func() {
		sym, err := key.RecoverKey(ct, g.policy)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := abe.OpenBody(sym, ct); err != nil || !bytes.Equal(pt, hotPost) {
			t.Fatalf("OpenBody = %d bytes, %v", len(pt), err)
		}
	}
	open() // the attribute secret authenticates the group's sender once
	ceiling := 5.0
	if raceEnabled {
		ceiling += 2
	}
	if got := testing.AllocsPerRun(100, open); got > ceiling {
		t.Fatalf("ABE cold open: %v allocs/op, ceiling %v", got, ceiling)
	} else {
		t.Logf("ABE cold open: %v allocs/op", got)
	}
}

// TestRevocationReportsPinned pins E2's revocation reports at its quick shape
// (8 members, 10 prior posts, a join, then the first member's removal).
// Where the wraps of a ciphertext go and how many
// ephemeral keys carry them must not change what a removal re-keys,
// re-encrypts or agrees.
func TestRevocationReportsPinned(t *testing.T) {
	names := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8"}
	f := newFixture(t, names...)
	for _, tc := range []struct {
		g    Group
		want RevocationReport
	}{
		{buildHybrid(t, f), RevocationReport{RekeyedMembers: 8, ReencryptedEnvelopes: 10}},
		{buildABE(t), RevocationReport{RekeyedMembers: 8, ReencryptedEnvelopes: 10, PublicKeyOps: 1}},
		{buildIBBE(t), RevocationReport{Free: true}},
	} {
		for _, m := range names[:8] {
			if err := tc.g.Add(m); err != nil {
				t.Fatalf("%s: Add(%s): %v", tc.g.Scheme(), m, err)
			}
		}
		for i := 0; i < 10; i++ {
			if _, err := tc.g.Encrypt([]byte(fmt.Sprintf("post %d", i))); err != nil {
				t.Fatalf("%s: Encrypt: %v", tc.g.Scheme(), err)
			}
		}
		if err := tc.g.Add(names[8]); err != nil {
			t.Fatalf("%s: Add(%s): %v", tc.g.Scheme(), names[8], err)
		}
		report, err := tc.g.Remove(names[0])
		if err != nil {
			t.Fatalf("%s: Remove: %v", tc.g.Scheme(), err)
		}
		if report != tc.want {
			t.Errorf("%s: report %+v, want %+v", tc.g.Scheme(), report, tc.want)
		}
	}
}
