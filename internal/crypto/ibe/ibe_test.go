package ibe

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"godosn/internal/crypto/pubkey"
)

// decryptBroadcast decrypts a broadcast as a listed recipient does:
// UnwrapSession followed by OpenBroadcast.
func decryptBroadcast(k *IdentityKey, b *Broadcast) ([]byte, error) {
	session, err := k.UnwrapSession(b)
	if err != nil {
		return nil, err
	}
	return OpenBroadcast(session, b)
}

func newTestPKG(t *testing.T) *PKG {
	t.Helper()
	p, err := NewPKG()
	if err != nil {
		t.Fatalf("NewPKG: %v", err)
	}
	return p
}

func TestIBERoundTrip(t *testing.T) {
	pkg := newTestPKG(t)
	ct, err := pkg.Encrypt("alice@example.org", []byte("hello alice"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	key, err := pkg.Extract("alice@example.org")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	got, err := key.Decrypt(ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if string(got) != "hello alice" {
		t.Fatalf("got %q", got)
	}
}

func TestIBEWrongIdentityFails(t *testing.T) {
	pkg := newTestPKG(t)
	ct, _ := pkg.Encrypt("alice@example.org", []byte("for alice"))
	bobKey, _ := pkg.Extract("bob@example.org")
	if _, err := bobKey.Decrypt(ct); err == nil {
		t.Fatal("bob decrypted alice's message")
	}
}

func TestIdentityKeysDeterministic(t *testing.T) {
	pkg := newTestPKG(t)
	k1, _ := pkg.Extract("carol")
	k2, _ := pkg.Extract("carol")
	ct, _ := pkg.Encrypt("carol", []byte("m"))
	a, err1 := k1.Decrypt(ct)
	b, err2 := k2.Decrypt(ct)
	if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
		t.Fatal("re-extracted key differs")
	}
}

func TestDifferentPKGsIncompatible(t *testing.T) {
	pkg1 := newTestPKG(t)
	pkg2 := newTestPKG(t)
	ct, _ := pkg1.Encrypt("alice", []byte("m"))
	key, _ := pkg2.Extract("alice")
	if _, err := key.Decrypt(ct); err == nil {
		t.Fatal("key from different PKG decrypted")
	}
}

func TestArbitraryStringIdentities(t *testing.T) {
	pkg := newTestPKG(t)
	// "public keys can be any arbitrary string" — exercise odd identities.
	for _, id := range []string{"", "a", "ユーザー@例.jp", "spaces in id", string([]byte{0, 1, 2})} {
		ct, err := pkg.Encrypt(id, []byte("m"))
		if err != nil {
			t.Fatalf("Encrypt(%q): %v", id, err)
		}
		key, err := pkg.Extract(id)
		if err != nil {
			t.Fatalf("Extract(%q): %v", id, err)
		}
		if got, err := key.Decrypt(ct); err != nil || string(got) != "m" {
			t.Fatalf("Decrypt(%q): %v", id, err)
		}
	}
}

func TestBroadcastRoundTrip(t *testing.T) {
	pkg := newTestPKG(t)
	recipients := []string{"alice", "bob", "carol"}
	b, err := pkg.EncryptBroadcast(pubkey.NewSender(), recipients, []byte("party on friday"))
	if err != nil {
		t.Fatalf("EncryptBroadcast: %v", err)
	}
	for _, id := range recipients {
		key, _ := pkg.Extract(id)
		got, err := decryptBroadcast(key, b)
		if err != nil {
			t.Fatalf("decryptBroadcast(%s): %v", id, err)
		}
		if string(got) != "party on friday" {
			t.Fatalf("%s got %q", id, got)
		}
	}
}

func TestBroadcastNonRecipientFails(t *testing.T) {
	pkg := newTestPKG(t)
	b, _ := pkg.EncryptBroadcast(pubkey.NewSender(), []string{"alice", "bob"}, []byte("secret"))
	eveKey, _ := pkg.Extract("eve")
	if _, err := decryptBroadcast(eveKey, b); err == nil {
		t.Fatal("non-recipient decrypted broadcast")
	}
}

func TestBroadcastRecipientRemovalIsFree(t *testing.T) {
	// The paper: "Removing a recipient from the list would then have no
	// extra cost" — a new broadcast simply omits the identity; no re-keying
	// of remaining members is needed.
	// One sender context for both: bob's pairwise key with it is still
	// warm when he is left off the list.
	pkg, sender := newTestPKG(t), pubkey.NewSender()
	before, _ := pkg.EncryptBroadcast(sender, []string{"alice", "bob", "carol"}, []byte("v1"))
	after, err := pkg.EncryptBroadcast(sender, []string{"alice", "carol"}, []byte("v2"))
	if err != nil {
		t.Fatalf("EncryptBroadcast: %v", err)
	}
	bobKey, _ := pkg.Extract("bob")
	if _, err := decryptBroadcast(bobKey, after); err == nil {
		t.Fatal("removed recipient still decrypts")
	}
	aliceKey, _ := pkg.Extract("alice")
	if got, err := decryptBroadcast(aliceKey, after); err != nil || string(got) != "v2" {
		t.Fatalf("remaining recipient failed: %v", err)
	}
	// Old broadcasts stay readable by the removed member, as with any
	// already-delivered content.
	if _, err := decryptBroadcast(bobKey, before); err != nil {
		t.Fatalf("old broadcast unreadable: %v", err)
	}
}

func TestBroadcastEmptyRecipients(t *testing.T) {
	pkg := newTestPKG(t)
	if _, err := pkg.EncryptBroadcast(pubkey.NewSender(), nil, []byte("m")); err == nil {
		t.Fatal("accepted empty recipient list")
	}
}

func TestBroadcastMalformed(t *testing.T) {
	pkg := newTestPKG(t)
	key, _ := pkg.Extract("alice")
	if _, err := decryptBroadcast(key, nil); err == nil {
		t.Fatal("accepted nil broadcast")
	}
	b, _ := pkg.EncryptBroadcast(pubkey.NewSender(), []string{"alice"}, []byte("m"))
	b.WrappedKeys = nil
	if _, err := decryptBroadcast(key, b); err == nil {
		t.Fatal("accepted broadcast with missing wraps")
	}
}

// TestBroadcastWrapsShareOneBuffer pins the wrap layout at 8 and 64
// recipients: the ephemeral key once, then one buffer of len(recipients)
// wraps of WrapOverhead()+32 bytes followed by the body, each WrappedKeys
// entry a view whose capacity ends with it, so a caller appending to one
// wrap (or to the ephemeral) changes neither the next wrap nor the body.
// Every member opens, with its key pair's sender memo cold and then warm.
func TestBroadcastWrapsShareOneBuffer(t *testing.T) {
	for _, n := range []int{8, 64} {
		pkg := newTestPKG(t)
		recipients := make([]string, n)
		for i := range recipients {
			recipients[i] = fmt.Sprintf("m%d", i)
		}
		b, err := pkg.EncryptBroadcast(pubkey.NewSender(), recipients, []byte("many wraps"))
		if err != nil {
			t.Fatalf("EncryptBroadcast: %v", err)
		}
		if len(b.Ephemeral) != pubkey.EphemeralSize || cap(b.Ephemeral) != pubkey.EphemeralSize {
			t.Fatalf("n=%d: ephemeral len %d cap %d, want both %d", n, len(b.Ephemeral), cap(b.Ephemeral), pubkey.EphemeralSize)
		}
		wrapLen := pubkey.WrapOverhead() + 32
		for i, w := range b.WrappedKeys {
			if len(w) != wrapLen || cap(w) != wrapLen {
				t.Fatalf("n=%d: wrap %d: len %d cap %d, want both %d", n, i, len(w), cap(w), wrapLen)
			}
			if i > 0 && !follows(b.WrappedKeys[i-1], w) {
				t.Fatalf("n=%d: wrap %d does not follow wrap %d in one buffer", n, i, i-1)
			}
		}
		if !follows(b.WrappedKeys[n-1], b.Body) || cap(b.Body) != len(b.Body) {
			t.Fatalf("n=%d: the body does not end the wraps' buffer", n)
		}

		snapshot := func() [][]byte {
			out := [][]byte{bytes.Clone(b.Body), bytes.Clone(b.Ephemeral)}
			for _, w := range b.WrappedKeys {
				out = append(out, bytes.Clone(w))
			}
			return out
		}
		before := snapshot()
		for _, f := range append([][]byte{b.Ephemeral}, b.WrappedKeys...) {
			grown := append(f, 0xff, 0xff, 0xff)
			grown[0] ^= 0xff // the grown copy is the caller's, not the broadcast's
		}
		if after := snapshot(); !reflect.DeepEqual(before, after) {
			t.Fatalf("n=%d: appending to a field changed another wrap or the body", n)
		}

		for _, phase := range []string{"cold", "warm"} {
			for _, id := range recipients {
				key, err := pkg.Extract(id)
				if err != nil {
					t.Fatalf("Extract(%s): %v", id, err)
				}
				if got, err := decryptBroadcast(key, b); err != nil || string(got) != "many wraps" {
					t.Fatalf("n=%d %s: %s read: %q, %v", n, phase, id, got, err)
				}
			}
		}
	}
}

// TestBroadcastWrapsSealTheSessionInPlace: every wrap is sealed over the
// session key copied into its slot: every recipient of 1, 8 and 64 unwraps
// the same session key, no wrap carries it in the clear, and the body opens
// under it.
func TestBroadcastWrapsSealTheSessionInPlace(t *testing.T) {
	pkg := newTestPKG(t)
	for _, n := range []int{1, 8, 64} {
		recipients := make([]string, n)
		for i := range recipients {
			recipients[i] = fmt.Sprintf("m%d", i)
		}
		b, err := pkg.EncryptBroadcast(pubkey.NewSender(), recipients, []byte("sealed in place"))
		if err != nil {
			t.Fatalf("EncryptBroadcast: %v", err)
		}
		var session []byte
		for _, id := range recipients {
			key, err := pkg.Extract(id)
			if err != nil {
				t.Fatalf("Extract(%s): %v", id, err)
			}
			got, err := key.UnwrapSession(b)
			if err != nil || len(got) != 32 || (session != nil && !bytes.Equal(got, session)) {
				t.Fatalf("n=%d: %s unwraps %x, %v; first recipient %x", n, id, got, err, session)
			}
			session = got
		}
		wraps := unsafe.Slice(unsafe.SliceData(b.WrappedKeys[0]), n*len(b.WrappedKeys[0]))
		if bytes.Contains(wraps, session) {
			t.Fatalf("n=%d: the wraps carry the session key in the clear", n)
		}
		if pt, err := OpenBroadcast(session, b); err != nil || string(pt) != "sealed in place" {
			t.Fatalf("n=%d: OpenBroadcast = %q, %v", n, pt, err)
		}
	}
}

// follows reports whether next starts where prev ends in memory.
func follows(prev, next []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(next)))-uintptr(unsafe.Pointer(unsafe.SliceData(prev))) == uintptr(len(prev))
}

// TestSwappedEphemeralFailsEveryWrap moves the ephemeral field from one
// broadcast to another broadcast's wraps. Both senders' ephemerals are warm
// in every recipient's memo, so the swap reaches the tag check on the memo-hit
// path too: every wrap's tag fails.
func TestSwappedEphemeralFailsEveryWrap(t *testing.T) {
	pkg := newTestPKG(t)
	recipients := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	a, err := pkg.EncryptBroadcast(pubkey.NewSender(), recipients, []byte("from a"))
	if err != nil {
		t.Fatalf("EncryptBroadcast: %v", err)
	}
	b, err := pkg.EncryptBroadcast(pubkey.NewSender(), recipients, []byte("from b"))
	if err != nil {
		t.Fatalf("EncryptBroadcast: %v", err)
	}
	if bytes.Equal(a.Ephemeral, b.Ephemeral) {
		t.Fatal("two senders share an ephemeral")
	}
	swapped := []*Broadcast{
		{Recipients: recipients, Ephemeral: b.Ephemeral, WrappedKeys: a.WrappedKeys, Body: a.Body},
		{Recipients: recipients, Ephemeral: a.Ephemeral, WrappedKeys: b.WrappedKeys, Body: b.Body},
	}
	for _, phase := range []string{"cold", "warm"} {
		for _, id := range recipients {
			key, err := pkg.Extract(id)
			if err != nil {
				t.Fatalf("Extract(%s): %v", id, err)
			}
			for i, sw := range swapped {
				if _, err := key.UnwrapSession(sw); err == nil {
					t.Fatalf("%s: %s unwrapped swapped broadcast %d", phase, id, i)
				}
			}
			if phase == "cold" { // warm both ephemerals for the second pass
				for _, orig := range []*Broadcast{a, b} {
					if _, err := decryptBroadcast(key, orig); err != nil {
						t.Fatalf("%s: %s on an untouched broadcast: %v", phase, id, err)
					}
				}
			}
		}
	}
}
