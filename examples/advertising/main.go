// Privacy-preserving advertising: the paper's open-problem section asks for
// "privacy preserving advertising for a service provider storing encrypted
// data of users" (Section VI, citing Privad and Adnostic). A prologue shows
// that provider first (Section II-A): on a plain provider employees read
// users' posts, deleted ones too, and the provider sells their interests;
// under flyByNight's proxy re-encryption employees read nothing. The
// example then sketches the Hummingbird-based answer the framework enables:
//
//   - users' interests are hashtag subscriptions obtained by BLIND signature,
//     so the ad broker never learns who is interested in what;
//
//   - the broker publishes ads encrypted per interest category;
//
//   - matching happens on the user's device (the Adnostic model), so the
//     provider sees neither interests nor which ad was shown.
//
//     go run ./examples/advertising
package main

import (
	"fmt"
	"log"

	"godosn/internal/centralized"
	"godosn/internal/search/blindsub"
)

func main() {
	providerView()

	// The ad broker is a blind-signature publisher: interest categories are
	// its "hashtags".
	broker, err := blindsub.NewPublisher(1024)
	if err != nil {
		log.Fatalf("creating broker: %v", err)
	}

	// The broker publishes an encrypted ad per category. The storage layer
	// (or the OSN provider) sees opaque tags and ciphertext only.
	categories := map[string]string{
		"#hiking":      "Ad: 20% off trail boots at MountainCo",
		"#photography": "Ad: mirrorless camera launch event",
		"#crypto":      "Ad: post-quantum key management webinar",
		"#gardening":   "Ad: heirloom seed catalog, new season",
	}
	var inventory []*blindsub.Tweet
	fmt.Println("broker publishes encrypted ads (provider-visible view):")
	for cat, ad := range categories {
		tw, err := broker.Publish(cat, []byte(ad))
		if err != nil {
			log.Fatalf("publish: %v", err)
		}
		inventory = append(inventory, tw)
		fmt.Printf("  tag=%x...  body=<%d bytes ciphertext>  (category hidden)\n", tw.Tag[:8], len(tw.Body))
		_ = cat
	}

	// Alice is interested in hiking and photography. She subscribes via
	// BLIND signatures: the broker signs without learning her interests.
	fmt.Println("\nalice subscribes blindly to her interests:")
	var subs []*blindsub.Subscription
	for _, interest := range []string{"#hiking", "#photography"} {
		sub, err := blindsub.Subscribe(broker, interest)
		if err != nil {
			log.Fatalf("subscribe: %v", err)
		}
		subs = append(subs, sub)
		fmt.Printf("  subscribed to %s (broker saw only a blinded element)\n", interest)
	}

	// On-device matching: alice filters the inventory locally.
	fmt.Println("\non-device ad matching (nothing reported back):")
	for _, tw := range inventory {
		for _, sub := range subs {
			if sub.Matches(tw) {
				ad, err := sub.Open(tw)
				if err != nil {
					log.Fatalf("open: %v", err)
				}
				fmt.Printf("  matched %s -> %q\n", sub.Hashtag, ad)
			}
		}
	}

	// What each party learned.
	fmt.Println("\ninformation flow summary:")
	fmt.Println("  broker:   signed two blinded elements; cannot link them to categories or to alice's views")
	fmt.Println("  provider: stored 4 (tag, ciphertext) pairs; learned no interests, no matches")
	fmt.Println("  alice:    decrypted exactly the ads for her interests, locally")
}

// providerView is the prologue: the same three posts on a plain provider
// and on one where alice's client encrypts for flyByNight re-encryption.
func providerView() {
	posts := []string{
		"visiting the oncology clinic on tuesday",
		"attending the union meeting thursday",
		"my new address: 12 Elm Street",
	}
	plain := centralized.NewProvider(false)
	plain.Register("alice")
	for i, s := range posts {
		if err := plain.UploadPlain("alice", fmt.Sprintf("p%d", i), s); err != nil {
			log.Fatal(err)
		}
	}
	plain.Delete("alice", "p0") // the provider keeps a backup copy
	browsed := plain.EmployeeBrowse("alice")
	if len(browsed) != len(posts) {
		log.Fatalf("plain provider: the employee reads %q, want all %d posts", browsed, len(posts))
	}
	fmt.Println("a plain provider's employee reads all of alice's posts, the deleted one too:")
	for _, item := range browsed {
		fmt.Printf("  %q\n", item)
	}
	fmt.Printf("and the provider sells her interests: %v\n", plain.SellUserData("alice"))

	fbn := centralized.NewProvider(false)
	alice, err := centralized.NewClient(fbn, "alice")
	if err != nil {
		log.Fatal(err)
	}
	bob, err := centralized.NewClient(fbn, "bob")
	if err != nil {
		log.Fatal(err)
	}
	if err := alice.Befriend(bob); err != nil {
		log.Fatal(err)
	}
	for i, s := range posts {
		if err := alice.Post(fmt.Sprintf("p%d", i), s); err != nil {
			log.Fatal(err)
		}
	}
	fbn.Delete("alice", "p0")
	if seen := fbn.EmployeeBrowse("alice"); len(seen) != 0 {
		log.Fatalf("flyByNight: the employee reads %q", seen)
	}
	got, err := bob.Read("alice", "p1")
	if err != nil || got != posts[1] {
		log.Fatalf("bob reads p1 through re-encryption: %q, %v", got, err)
	}
	k := fbn.KnowledgeOf("alice")
	fmt.Printf("\nunder flyByNight the employee reads nothing, bob still reads %q,\n", got)
	fmt.Printf("and the provider keeps %d opaque items and %d social edges\n\n", k.OpaqueItems, k.SocialEdges)
}
