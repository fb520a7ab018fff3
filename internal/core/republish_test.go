package core

import (
	"testing"

	"godosn/internal/social/privacy"
)

func TestRepublishArchiveAfterRevocation(t *testing.T) {
	// The full Section III-D revocation workflow against real overlay
	// storage: revoking re-encrypts the archive locally, but replicas still
	// hold the old-epoch ciphertext until the owner re-stores it.
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	carol := n.MustNode("carol")

	g, err := alice.CreateGroup("inner", privacy.SchemeSymmetric)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	g.Add("bob")
	g.Add("carol")
	alice.ShareGroup("inner", bob)
	alice.ShareGroup("inner", carol)

	if _, _, err := alice.Publish("inner", []byte("old post")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if _, _, err := bob.ReadPost("alice", 0); err != nil {
		t.Fatalf("pre-revocation read: %v", err)
	}

	if _, err := g.Remove("carol"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// The overlay still holds the epoch-1 envelope: stale for everyone.
	if _, _, err := bob.ReadPost("alice", 0); err == nil {
		t.Fatal("stale overlay envelope decrypted after re-keying")
	}
	// The owner re-stores the re-encrypted archive...
	st, err := alice.RepublishArchive("inner", []uint64{0})
	if err != nil {
		t.Fatalf("RepublishArchive: %v", err)
	}
	if st.Messages == 0 {
		t.Fatal("republish cost no overlay traffic")
	}
	// ...bob reads again, carol stays locked out.
	got, _, err := bob.ReadPost("alice", 0)
	if err != nil || string(got) != "old post" {
		t.Fatalf("post-republish read: %q, %v", got, err)
	}
	if _, _, err := carol.ReadPost("alice", 0); err == nil {
		t.Fatal("revoked member read republished post")
	}
}
