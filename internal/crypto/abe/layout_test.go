package abe_test

import (
	"bytes"
	"reflect"
	"testing"

	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/social/privacy"
)

// TestCiphertextFieldsAreCapLimited is the ABE twin of ibe's
// TestBroadcastWrapsShareOneBuffer, over a single leaf, an AND, a threshold
// and a nested OR. PolicyText, Ephemeral and every share wrap have a
// capacity that ends with them, so a caller appending to one changes no
// other field; the envelope re-marshals byte for byte at its pinned length;
// and every satisfying attribute set opens the ciphertext as sealed and as
// decoded.
func TestCiphertextFieldsAreCapLimited(t *testing.T) {
	auth, err := abe.NewAuthority("member", "a", "b", "c", "relative", "friend", "doctor")
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	const post = "fields stay apart"
	for _, tc := range []struct {
		policy  string
		wireLen int // len(privacy.Marshal) of the envelope below
		readers [][]string
	}{
		{"(member)", 239, [][]string{{"member"}}},
		{"(a AND b)", 310, [][]string{{"a", "b"}}},
		{"2-of(a, b, c)", 382, [][]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}},
		{"(relative OR (friend AND doctor))", 402, [][]string{{"relative"}, {"friend", "doctor"}}},
	} {
		pol, err := abe.ParsePolicy(tc.policy)
		if err != nil {
			t.Fatalf("ParsePolicy(%s): %v", tc.policy, err)
		}
		ct, err := abe.Encrypt(pubkey.NewSender(), auth.PublicParams(), pol, []byte(post))
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", tc.policy, err)
		}

		fields := [][]byte{ct.PolicyText, ct.Ephemeral}
		for _, s := range ct.Shares {
			fields = append(fields, s.Wrap)
		}
		for i, f := range fields {
			if cap(f) != len(f) {
				t.Fatalf("%s: field %d: len %d cap %d", tc.policy, i, len(f), cap(f))
			}
		}
		snapshot := func() [][]byte {
			out := [][]byte{bytes.Clone(ct.Body)}
			for _, f := range fields {
				out = append(out, bytes.Clone(f))
			}
			return out
		}
		before := snapshot()
		for _, f := range fields {
			grown := append(f, 0xff, 0xff, 0xff)
			grown[0] ^= 0xff // the grown copy is the caller's, not the ciphertext's
		}
		if after := snapshot(); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: appending to a field changed another field or the body", tc.policy)
		}

		env := privacy.Envelope{Scheme: privacy.SchemeABE, Group: "layout", Epoch: ct.Epoch, Payload: ct}
		wire, err := privacy.Marshal(env)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.policy, err)
		}
		if len(wire) != tc.wireLen {
			t.Fatalf("%s: envelope is %d bytes, want %d", tc.policy, len(wire), tc.wireLen)
		}
		decoded, err := privacy.Unmarshal(wire)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", tc.policy, err)
		}
		again, err := privacy.Marshal(decoded)
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", tc.policy, err)
		}
		if !bytes.Equal(again, wire) {
			t.Fatalf("%s: the decoded envelope re-marshals differently", tc.policy)
		}

		for _, attrs := range tc.readers {
			key, err := auth.IssueKey(attrs)
			if err != nil {
				t.Fatalf("IssueKey(%v): %v", attrs, err)
			}
			for _, c := range []*abe.Ciphertext{ct, decoded.Payload.(*abe.Ciphertext)} {
				if got, err := key.Decrypt(c); err != nil || string(got) != post {
					t.Fatalf("%s: %v read: %q, %v", tc.policy, attrs, got, err)
				}
			}
		}
	}
}
