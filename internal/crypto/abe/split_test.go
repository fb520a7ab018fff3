package abe

import (
	"bytes"
	"errors"
	"testing"

	"godosn/internal/crypto/pubkey"
)

// The two-phase decrypt API: RecoverKey then OpenBody must compose to
// exactly Decrypt, and the recovered payload key must be reusable across
// opens (the property the privacy layer's key cache relies on).

func TestRecoverKeyOpenBodyCompose(t *testing.T) {
	auth, err := NewAuthority("relative", "doctor")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	pol, err := ParsePolicy("(relative AND doctor)")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	ct, err := Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte("two-phase"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	key, err := auth.IssueKey([]string{"relative", "doctor"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	payloadKey, err := key.RecoverKey(ct, nil)
	if err != nil {
		t.Fatalf("RecoverKey: %v", err)
	}
	for i := 0; i < 2; i++ {
		pt, err := OpenBody(payloadKey, ct)
		if err != nil || !bytes.Equal(pt, []byte("two-phase")) {
			t.Fatalf("OpenBody %d: %q, %v", i, pt, err)
		}
	}
	whole, err := key.Decrypt(ct)
	if err != nil || !bytes.Equal(whole, []byte("two-phase")) {
		t.Fatalf("Decrypt: %q, %v", whole, err)
	}
}

func TestRecoverKeyUnsatisfiedAndRevoked(t *testing.T) {
	auth, err := NewAuthority("relative", "doctor")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	pol, err := ParsePolicy("(relative AND doctor)")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	ct, err := Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte("guarded"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	partial, err := auth.IssueKey([]string{"relative"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	if _, err := partial.RecoverKey(ct, nil); !errors.Is(err, ErrNotSatisfied) {
		t.Fatalf("RecoverKey with partial attributes = %v; want ErrNotSatisfied", err)
	}
	// A pre-revocation key cannot recover the payload key of a ciphertext
	// encrypted under re-keyed parameters.
	full, err := auth.IssueKey([]string{"relative", "doctor"})
	if err != nil {
		t.Fatalf("IssueKey: %v", err)
	}
	if err := auth.Revoke([]string{"relative", "doctor"}); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	fresh, err := Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte("post-rekey"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := full.RecoverKey(fresh, nil); !errors.Is(err, ErrNotSatisfied) {
		t.Fatalf("RecoverKey with stale key = %v; want ErrNotSatisfied", err)
	}
}
