package core

import (
	"bytes"
	"errors"
	"testing"

	"godosn/internal/resilience/scrub"
	"godosn/internal/social/privacy"
)

// TestRepublishArchiveAfterRevocation is the full Section III-D revocation
// workflow against real overlay storage, on every overlay and under every
// Table-I scheme: revoking re-encrypts the archive locally, the owner
// re-stores it, and a member who read (and so cached) the old copy reads
// the re-stored one.
func TestRepublishArchiveAfterRevocation(t *testing.T) {
	for _, kind := range []OverlayKind{OverlayDHT, OverlayGossip, OverlaySuperPeer, OverlayHybrid, OverlayFederation} {
		for _, scheme := range privacy.Schemes() {
			t.Run(kind.String()+"/"+string(scheme), func(t *testing.T) {
				n := smallNetwork(t, kind)
				alice := n.MustNode("alice")
				bob := n.MustNode("bob")
				carol := n.MustNode("carol")

				g, err := alice.CreateGroup("inner", scheme)
				if err != nil {
					t.Fatalf("CreateGroup: %v", err)
				}
				for _, m := range []*Node{bob, carol} {
					if err := g.Add(m.Name()); err != nil {
						t.Fatalf("Add: %v", err)
					}
					if err := alice.ShareGroup("inner", m); err != nil {
						t.Fatalf("ShareGroup: %v", err)
					}
				}
				if _, _, err := alice.Publish("inner", []byte("old post")); err != nil {
					t.Fatalf("Publish: %v", err)
				}
				for _, m := range []*Node{bob, carol} {
					if _, _, err := m.ReadPost("alice", 0); err != nil {
						t.Fatalf("%s pre-revocation read: %v", m.Name(), err)
					}
				}

				report, err := g.Remove("carol")
				if err != nil {
					t.Fatalf("Remove: %v", err)
				}
				// A re-keying revocation leaves the overlay's copy stale for
				// everyone until the owner re-stores the archive.
				if !report.Free {
					if _, _, err := bob.ReadPost("alice", 0); err == nil {
						t.Fatal("stale overlay envelope decrypted after re-keying")
					}
				}
				st, err := alice.RepublishArchive("inner", []uint64{0})
				if err != nil {
					t.Fatalf("RepublishArchive: %v", err)
				}
				// Gossip keeps data at its owner: there a store is local and free.
				if st.Messages == 0 && kind != OverlayGossip {
					t.Fatal("republish cost no overlay traffic")
				}

				got, _, err := bob.ReadPost("alice", 0)
				if err != nil || string(got) != "old post" {
					t.Fatalf("post-republish read: %q, %v", got, err)
				}
				post, _, err := bob.FetchPost("alice", 0)
				if err != nil {
					t.Fatalf("FetchPost: %v", err)
				}
				fetched, err := privacy.Marshal(post.Envelope)
				if err != nil {
					t.Fatalf("Marshal fetched: %v", err)
				}
				current, err := privacy.Marshal(g.Archive()[0])
				if err != nil {
					t.Fatalf("Marshal archive: %v", err)
				}
				if !bytes.Equal(fetched, current) {
					t.Fatal("the overlay serves an envelope other than the republished one")
				}
				// A free revocation re-encrypts nothing: the revoked reader
				// keeps what it could already read, by design.
				if report.Free {
					return
				}
				if _, _, err := carol.ReadPost("alice", 0); err == nil {
					t.Fatal("revoked member read republished post")
				}
			})
		}
	}
}

// TestFailedRepublishLeavesPostUnreadable pins what a re-store that fails
// leaves behind: signPost has already moved the key's head, so every copy
// still in the overlay is superseded and the post reads as corrupt, even
// under a scheme whose stale envelope would decrypt, until the owner
// retries the re-store.
func TestFailedRepublishLeavesPostUnreadable(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	g, err := alice.CreateGroup("inner", privacy.SchemePublicKey)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	for _, m := range []string{"bob", "carol"} {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := alice.ShareGroup("inner", bob); err != nil {
		t.Fatalf("ShareGroup: %v", err)
	}
	if _, _, err := alice.Publish("inner", []byte("old post")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if _, err := g.Remove("carol"); err != nil {
		t.Fatalf("Remove: %v", err)
	}

	setOnline := func(online bool) {
		for _, u := range n.Users() {
			if err := n.SetOnline(u, online); err != nil {
				t.Fatalf("SetOnline %s: %v", u, err)
			}
		}
	}
	setOnline(false)
	if _, err := alice.RepublishArchive("inner", []uint64{0}); err == nil {
		t.Fatal("re-store with every node offline succeeded")
	}
	setOnline(true)
	if _, _, err := bob.ReadPost("alice", 0); !errors.Is(err, scrub.ErrRecord) {
		t.Fatalf("read after a failed re-store: %v, want scrub.ErrRecord", err)
	}

	if _, err := alice.RepublishArchive("inner", []uint64{0}); err != nil {
		t.Fatalf("retried RepublishArchive: %v", err)
	}
	if got, _, err := bob.ReadPost("alice", 0); err != nil || string(got) != "old post" {
		t.Fatalf("read after the retry: %q, %v", got, err)
	}
}
