package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"godosn/internal/social/integrity"
	"godosn/internal/social/privacy"
)

// TestWorkloadSoak drives a randomized OSN action mix (posts, comments,
// feed reads, searches) through a full network on every overlay and checks
// global invariants afterwards: all published content is readable by its
// audience and only its audience, walls stay fork-consistent, and timelines
// verify.
func TestWorkloadSoak(t *testing.T) {
	for _, kind := range []OverlayKind{OverlayDHT, OverlaySuperPeer, OverlayFederation} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const nUsers = 16
			users := make([]string, nUsers)
			for i := range users {
				users[i] = fmt.Sprintf("user-%02d", i)
			}
			var friendships []Friendship
			for i := range users {
				friendships = append(friendships,
					Friendship{A: users[i], B: users[(i+1)%nUsers], Trust: 0.9},
					Friendship{A: users[i], B: users[(i+3)%nUsers], Trust: 0.5},
				)
			}
			net, err := NewNetwork(Config{
				Seed:        int64(kind),
				Overlay:     kind,
				Users:       users,
				Friendships: friendships,
			})
			if err != nil {
				t.Fatalf("NewNetwork: %v", err)
			}

			// Every user gets a "friends" group containing their direct
			// friends, cycling through the privacy schemes.
			schemes := []privacy.Scheme{
				privacy.SchemeSymmetric, privacy.SchemePublicKey, privacy.SchemeABE,
				privacy.SchemeIBBE, privacy.SchemeHybrid,
			}
			groups := make(map[string]privacy.Group, nUsers)
			for i, u := range users {
				node := net.MustNode(u)
				gname := "friends-of-" + u
				g, err := node.CreateGroup(gname, schemes[i%len(schemes)], "(friend-of-"+u+")")
				if err != nil {
					t.Fatalf("CreateGroup(%s): %v", u, err)
				}
				for _, f := range net.Graph.Friends(u) {
					if err := g.Add(f); err != nil {
						t.Fatalf("Add(%s->%s): %v", u, f, err)
					}
					if err := node.ShareGroup(gname, net.MustNode(f)); err != nil {
						t.Fatalf("ShareGroup: %v", err)
					}
				}
				groups[u] = g
			}

			// Drive the action mix: 30% posts, 50% feed reads, 20% searches.
			rng := rand.New(rand.NewSource(99))
			mix := rand.New(rand.NewSource(7))
			posted := map[string]int{}
			for i := 0; i < 300; i++ {
				u := users[rng.Intn(nUsers)]
				node := net.MustNode(u)
				switch x := mix.Float64(); {
				case x < 0.3:
					body := fmt.Sprintf("%s post %d", u, posted[u])
					if _, _, err := node.Publish("friends-of-"+u, []byte(body)); err != nil {
						t.Fatalf("action %d: Publish(%s): %v", i, u, err)
					}
					posted[u]++
				case x < 0.8:
					if _, _, err := node.ReadFeed(); err != nil {
						t.Fatalf("action %d: ReadFeed(%s): %v", i, u, err)
					}
				default:
					node.FindUsers()
				}
			}

			// Invariant 1: every post is readable by every friend, and by
			// nobody at distance >= 2 (non-member).
			for _, owner := range users {
				n := posted[owner]
				if n == 0 {
					continue
				}
				seq := uint64(rng.Intn(n))
				for _, reader := range users {
					readerNode := net.MustNode(reader)
					if reader == owner {
						continue
					}
					// Give non-friends a handle on the group object too, so
					// the test checks cryptographic denial, not object
					// unavailability.
					readerNode.groups["friends-of-"+owner] = groups[owner]
					_, _, err := readerNode.ReadPost(owner, seq)
					isFriend := slices.Contains(net.Graph.Friends(owner), reader)
					if isFriend && err != nil {
						t.Fatalf("friend %s cannot read %s/%d: %v", reader, owner, seq, err)
					}
					if !isFriend && err == nil {
						t.Fatalf("non-friend %s read %s/%d", reader, owner, seq)
					}
				}
			}

			// Invariant 2: walls are fork-consistent across readers.
			for _, owner := range users[:4] {
				if posted[owner] == 0 {
					continue
				}
				a := net.MustNode(users[(indexOf(users, owner)+1)%nUsers])
				b := net.MustNode(users[(indexOf(users, owner)+2)%nUsers])
				if err := a.SyncWall(owner); err != nil {
					t.Fatalf("SyncWall: %v", err)
				}
				if err := b.SyncWall(owner); err != nil {
					t.Fatalf("SyncWall: %v", err)
				}
				if err := a.CrossCheckWall(owner, b); err != nil {
					t.Fatalf("CrossCheckWall(%s): %v", owner, err)
				}
			}

			// Invariant 3: every timeline verifies end to end.
			for _, owner := range users {
				node := net.MustNode(owner)
				if err := verifyTimeline(net, node); err != nil {
					t.Fatalf("timeline of %s: %v", owner, err)
				}
			}
		})
	}
}

func indexOf(list []string, x string) int {
	for i, v := range list {
		if v == x {
			return i
		}
	}
	return -1
}

func verifyTimeline(net *Network, node *Node) error {
	return integrity.VerifyTimeline(net.Registry, node.Name(), node.Timeline.Entries())
}
