package ibe

import (
	"bytes"
	"errors"
	"testing"

	"godosn/internal/crypto/pubkey"
)

// The two-phase broadcast API: UnwrapSession then OpenBroadcast must compose
// to exactly DecryptBroadcast, and the session key must be reusable across
// opens (the property the privacy layer's key cache relies on).

func TestUnwrapSessionOpenBroadcastCompose(t *testing.T) {
	pkg, err := NewPKG()
	if err != nil {
		t.Fatalf("NewPKG: %v", err)
	}
	b, err := pkg.EncryptBroadcast(pubkey.NewSender(), []string{"alice", "bob"}, []byte("two-phase"))
	if err != nil {
		t.Fatalf("EncryptBroadcast: %v", err)
	}
	key, err := pkg.Extract("bob")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	session, err := key.UnwrapSession(b)
	if err != nil {
		t.Fatalf("UnwrapSession: %v", err)
	}
	for i := 0; i < 2; i++ {
		pt, err := OpenBroadcast(session, b)
		if err != nil || !bytes.Equal(pt, []byte("two-phase")) {
			t.Fatalf("OpenBroadcast %d: %q, %v", i, pt, err)
		}
	}
}

func TestUnwrapSessionNonRecipient(t *testing.T) {
	pkg, err := NewPKG()
	if err != nil {
		t.Fatalf("NewPKG: %v", err)
	}
	b, err := pkg.EncryptBroadcast(pubkey.NewSender(), []string{"alice"}, []byte("private"))
	if err != nil {
		t.Fatalf("EncryptBroadcast: %v", err)
	}
	eve, err := pkg.Extract("eve")
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if _, err := eve.UnwrapSession(b); !errors.Is(err, ErrNotRecipient) {
		t.Fatalf("UnwrapSession for non-recipient = %v; want ErrNotRecipient", err)
	}
	if _, err := eve.UnwrapSession(nil); !errors.Is(err, ErrBadCiphertext) {
		t.Fatalf("UnwrapSession(nil) = %v; want ErrBadCiphertext", err)
	}
}
