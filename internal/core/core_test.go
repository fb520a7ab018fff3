package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"godosn/internal/crypto/historytree"
	"godosn/internal/social/privacy"
)

func smallNetwork(t *testing.T, kind OverlayKind) *Network {
	t.Helper()
	users := []string{"alice", "bob", "carol", "dave", "eve", "frank", "grace", "heidi"}
	var friendships []Friendship
	// Ring of friends plus a chord.
	for i := range users {
		friendships = append(friendships, Friendship{A: users[i], B: users[(i+1)%len(users)], Trust: 0.9})
	}
	friendships = append(friendships, Friendship{A: "alice", B: "carol", Trust: 0.7})
	n, err := NewNetwork(Config{
		Seed:        7,
		Overlay:     kind,
		Users:       users,
		Friendships: friendships,
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func TestNetworkConstructionAllOverlays(t *testing.T) {
	for _, kind := range []OverlayKind{OverlayDHT, OverlayGossip, OverlaySuperPeer, OverlayHybrid, OverlayFederation} {
		t.Run(kind.String(), func(t *testing.T) {
			n := smallNetwork(t, kind)
			if n.OverlayKind() != kind {
				t.Fatalf("OverlayKind = %v", n.OverlayKind())
			}
			if got := len(n.Users()); got != 8 {
				t.Fatalf("Users = %d", got)
			}
		})
	}
}

func TestPublishAndReadAcrossOverlays(t *testing.T) {
	for _, kind := range []OverlayKind{OverlayDHT, OverlayGossip, OverlaySuperPeer, OverlayHybrid, OverlayFederation} {
		t.Run(kind.String(), func(t *testing.T) {
			n := smallNetwork(t, kind)
			alice := n.MustNode("alice")
			bob := n.MustNode("bob")

			g, err := alice.CreateGroup("friends", privacy.SchemeHybrid, "")
			if err != nil {
				t.Fatalf("CreateGroup: %v", err)
			}
			if err := g.Add("bob"); err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := alice.ShareGroup("friends", bob); err != nil {
				t.Fatalf("ShareGroup: %v", err)
			}
			if _, _, err := alice.Publish("friends", []byte("hello DOSN")); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			got, _, err := bob.ReadPost("alice", 0)
			if err != nil {
				t.Fatalf("ReadPost: %v", err)
			}
			if string(got) != "hello DOSN" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestOutsiderCannotReadPost(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	eve := n.MustNode("eve")
	g, _ := alice.CreateGroup("close", privacy.SchemeSymmetric, "")
	g.Add("bob")
	alice.ShareGroup("close", eve) // eve can see the envelope...
	alice.Publish("close", []byte("secret"))
	if _, _, err := eve.ReadPost("alice", 0); err == nil {
		t.Fatal("non-member read the post") // ...but not decrypt it
	}
}

func TestFeedAssembly(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	carol := n.MustNode("carol")

	g, _ := bob.CreateGroup("bobs", privacy.SchemePublicKey, "")
	g.Add("alice")
	bob.ShareGroup("bobs", alice)
	g2, _ := carol.CreateGroup("carols", privacy.SchemePublicKey, "")
	g2.Add("alice")
	carol.ShareGroup("carols", alice)

	bob.Publish("bobs", []byte("bob 1"))
	bob.Publish("bobs", []byte("bob 2"))
	carol.Publish("carols", []byte("carol 1"))

	feed, _, err := alice.ReadFeed()
	if err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if len(feed) != 3 {
		t.Fatalf("feed has %d items, want 3", len(feed))
	}
}

func TestFeedExcludesInaccessible(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	bob := n.MustNode("bob")
	alice := n.MustNode("alice")
	g, _ := bob.CreateGroup("private", privacy.SchemeSymmetric, "")
	_ = g
	bob.Publish("private", []byte("only bob"))
	feed, _, err := alice.ReadFeed()
	if err != nil {
		t.Fatalf("ReadFeed: %v", err)
	}
	if len(feed) != 0 {
		t.Fatalf("feed leaked %d items", len(feed))
	}
}

func TestAllSchemesThroughNode(t *testing.T) {
	schemes := []privacy.Scheme{
		privacy.SchemeSubstitution, privacy.SchemeSymmetric, privacy.SchemePublicKey,
		privacy.SchemeABE, privacy.SchemeIBBE, privacy.SchemeHybrid,
	}
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	for i, scheme := range schemes {
		name := fmt.Sprintf("g-%s", scheme)
		g, err := alice.CreateGroup(name, scheme, "")
		if err != nil {
			t.Fatalf("CreateGroup(%s): %v", scheme, err)
		}
		if err := g.Add("bob"); err != nil {
			t.Fatalf("Add(%s): %v", scheme, err)
		}
		alice.ShareGroup(name, bob)
		body := fmt.Sprintf("message via %s", scheme)
		if _, _, err := alice.Publish(name, []byte(body)); err != nil {
			t.Fatalf("Publish(%s): %v", scheme, err)
		}
		got, _, err := bob.ReadPost("alice", uint64(i))
		if err != nil {
			t.Fatalf("ReadPost(%s): %v", scheme, err)
		}
		if string(got) != body {
			t.Fatalf("%s: got %q", scheme, got)
		}
	}
}

func TestRevocationThroughNode(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	carol := n.MustNode("carol")
	g, _ := alice.CreateGroup("inner", privacy.SchemeSymmetric, "")
	g.Add("bob")
	g.Add("carol")
	alice.ShareGroup("inner", bob)
	alice.ShareGroup("inner", carol)
	alice.Publish("inner", []byte("v1"))

	report, err := g.Remove("carol")
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if report.ReencryptedEnvelopes != 1 {
		t.Fatalf("re-encrypted %d envelopes", report.ReencryptedEnvelopes)
	}
	alice.Publish("inner", []byte("v2"))
	if _, _, err := carol.ReadPost("alice", 1); err == nil {
		t.Fatal("revoked member read new post")
	}
	got, _, err := bob.ReadPost("alice", 1)
	if err != nil || string(got) != "v2" {
		t.Fatalf("remaining member: %v", err)
	}
}

func TestWallSyncAndForkDetection(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	carol := n.MustNode("carol")
	g, _ := alice.CreateGroup("f", privacy.SchemeSymmetric, "")
	g.Add("bob")
	g.Add("carol")
	alice.Publish("f", []byte("p0"))
	if err := bob.SyncWall("alice"); err != nil {
		t.Fatalf("bob SyncWall: %v", err)
	}
	alice.Publish("f", []byte("p1"))
	if err := bob.SyncWall("alice"); err != nil {
		t.Fatalf("bob SyncWall 2: %v", err)
	}
	if err := carol.SyncWall("alice"); err != nil {
		t.Fatalf("carol SyncWall: %v", err)
	}
	// Honest storage: cross-check clean.
	if err := bob.CrossCheckWall("alice", carol); err != nil {
		t.Fatalf("CrossCheckWall: %v", err)
	}
	if bob.WallReader("alice").Commitment().Version != 2 {
		t.Fatalf("bob at version %d", bob.WallReader("alice").Commitment().Version)
	}
}

func TestForkEvidenceSurfaces(t *testing.T) {
	// Direct equivocation through the network's storage server: two
	// different wall objects signed by the same storage key.
	n := smallNetwork(t, OverlayDHT)
	c1, err := n.wallStorage.Append("wall:victim", []byte("view-for-bob"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	// A forged alternative view without a valid storage signature.
	c2 := &historytree.Commitment{ObjectID: c1.ObjectID, Version: c1.Version, Root: [32]byte{1, 2, 3}}
	// c2 is unsigned: CheckCommitments must reject it rather than treat it
	// as fork evidence.
	if err := historytree.CheckCommitments(c1, c2, n.storageVK); err == nil {
		t.Fatal("unsigned commitment accepted")
	} else {
		var fork *historytree.ForkEvidence
		if errors.As(err, &fork) {
			t.Fatal("unsigned commitment treated as fork evidence")
		}
	}
}

func TestFindUsersTrustRanked(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	found := alice.FindUsers()
	if len(found) == 0 {
		t.Fatal("no friends-of-friends found")
	}
	// All results must be 2-hop candidates, not direct friends.
	for _, u := range found {
		if slices.Contains(n.Graph.Friends("alice"), u) {
			t.Fatalf("direct friend %s in FoF results", u)
		}
	}
}

func TestUnknownUserAndGroupErrors(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	if _, err := n.Node("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("got %v", err)
	}
	alice := n.MustNode("alice")
	if _, err := alice.Group("nope"); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("got %v", err)
	}
	if _, _, err := alice.Publish("nope", []byte("x")); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("got %v", err)
	}
	if _, err := alice.CreateGroup("g", privacy.SchemeSymmetric, ""); err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	if _, err := alice.CreateGroup("g", privacy.SchemeSymmetric, ""); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate group: %v", err)
	}
	if _, err := alice.CreateGroup("h", privacy.Scheme("bogus"), ""); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestChurnBreaksThenReplicasServe(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	g, _ := alice.CreateGroup("f", privacy.SchemeSymmetric, "")
	g.Add("bob")
	alice.ShareGroup("f", bob)
	alice.Publish("f", []byte("available?"))
	// Alice going offline must not lose the post (replication factor 2).
	n.SetOnline("alice", false)
	if _, _, err := bob.ReadPost("alice", 0); err != nil {
		t.Fatalf("post unavailable after owner churn: %v", err)
	}
}
