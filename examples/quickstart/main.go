// Quickstart: boot a 20-user DOSN, form friendships and a hybrid-encrypted
// group, publish posts, read a feed, and cross-check fork-consistent walls.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"godosn/internal/core"
	"godosn/internal/social/privacy"
)

func main() {
	// 1. Describe the deployment: users, friendships, overlay architecture.
	users := make([]string, 20)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", i)
	}
	var friendships []core.Friendship
	for i := range users {
		friendships = append(friendships,
			core.Friendship{A: users[i], B: users[(i+1)%len(users)], Trust: 0.9},
			core.Friendship{A: users[i], B: users[(i+4)%len(users)], Trust: 0.6},
		)
	}
	net, err := core.NewNetwork(core.Config{
		Seed:        42,
		Overlay:     core.OverlayDHT,
		Users:       users,
		Friendships: friendships,
	})
	if err != nil {
		log.Fatalf("building network: %v", err)
	}
	fmt.Printf("booted %d users on a %s overlay\n", len(users), net.OverlayKind())

	alice := net.MustNode("user-00")
	bob := net.MustNode("user-01")
	carol := net.MustNode("user-04")

	// 2. Alice creates a group. Hybrid encryption = fast symmetric data
	// path + public-key key distribution (the paper's Section III-F).
	group, err := alice.CreateGroup("close-friends", privacy.SchemeHybrid)
	if err != nil {
		log.Fatalf("creating group: %v", err)
	}
	for _, member := range []*core.Node{bob, carol} {
		if err := group.Add(member.Name()); err != nil {
			log.Fatalf("adding member: %v", err)
		}
		if err := alice.ShareGroup("close-friends", member); err != nil {
			log.Fatalf("sharing group: %v", err)
		}
	}
	fmt.Printf("group %q members: %v\n", group.Name(), group.Members())

	// 3. Publish: the post is encrypted, chained into Alice's timeline,
	// appended to her wall, and stored in the overlay.
	for i, body := range []string{
		"first post: hello DOSN!",
		"second post: no central provider can read this",
		"third post: replicas store only ciphertext",
	} {
		if _, st, err := alice.Publish("close-friends", []byte(body)); err != nil {
			log.Fatalf("publish %d: %v", i, err)
		} else {
			fmt.Printf("published post %d (overlay store: %d msgs, %d hops)\n", i, st.Messages, st.Hops)
		}
	}

	// 4. Bob reads his feed through the overlay.
	feed, st, err := bob.ReadFeed()
	if err != nil {
		log.Fatalf("reading feed: %v", err)
	}
	fmt.Printf("bob's feed (%d msgs over the overlay):\n", st.Messages)
	for _, item := range feed {
		fmt.Printf("  - %s\n", item)
	}

	// 5. Fork-consistent walls: bob and carol verify they see the same
	// history of alice's wall.
	if err := bob.SyncWall("user-00"); err != nil {
		log.Fatalf("bob wall sync: %v", err)
	}
	if err := carol.SyncWall("user-00"); err != nil {
		log.Fatalf("carol wall sync: %v", err)
	}
	if err := bob.CrossCheckWall("user-00", carol); err != nil {
		log.Fatalf("fork detected: %v", err)
	}
	fmt.Printf("bob and carol agree on alice's wall at version %d (no fork)\n",
		bob.WallReader("user-00").Commitment().Version)

	// 6. Trust-ranked friend discovery.
	fmt.Printf("alice's trust-ranked friend suggestions: %v\n", alice.FindUsers()[:5])
}
