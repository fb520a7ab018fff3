// Secure social search: Alice wants to find her old friend Carol and read
// her profile without the relationship being disclosed "to service provider,
// or in the case of DOSN, to the intermediate nodes participating in the
// search" (paper Section I). A prologue shows why a plain directory query
// fails that and how far a proxy alias helps (Section V-B). The example then
// drives securesearch.Engine, the one path that composes all four Table-I
// search mechanisms:
//
//  1. owner privacy      — the index exposes resource handles, not data
//
//  2. trusted results    — candidates are trust-chain ranked
//
//  3. searcher privacy   — the request travels through trusted friends
//
//  4. access proof       — Alice dereferences pseudonymously with a ZKP
//
//     go run ./examples/securesearch
package main

import (
	"errors"
	"fmt"
	"log"

	"godosn/internal/search/proxy"
	"godosn/internal/search/securesearch"
	"godosn/internal/search/zkpauth"
	"godosn/internal/social/graph"
)

func main() {
	proxiedSearch()

	// Social graph: alice -- {bob, dana} -- {carol, carla, carol2}, with
	// varying trust; three candidates match the name search "car".
	g := graph.New()
	for _, u := range []string{"alice", "bob", "dana", "carol", "carla", "carol2"} {
		g.AddUser(u)
	}
	g.Befriend("alice", "bob", 0.95)
	g.Befriend("alice", "dana", 0.5)
	g.Befriend("bob", "carol", 0.9)
	g.Befriend("dana", "carla", 0.9)
	g.Befriend("dana", "carol2", 0.2)

	// Owners decide what is searchable: each publishes a handle; the
	// content stays behind the owner's ZKP whitelist (owner privacy, V-C).
	e := securesearch.New(g)
	e.Publish("carol", "profile", "carol — privacy researcher, likes hiking")
	e.Publish("carla", "profile", "carla — photographer")
	e.Publish("carol2", "profile", "carol2 — crypto spam")
	e.Ranker().SetPopularity("carol", 120)
	e.Ranker().SetPopularity("carla", 80)
	e.Ranker().SetPopularity("carol2", 3000) // spammy but popular

	// Steps 1+2 — search returns handles, never content, ranked by chained
	// trust from alice (trusted search result, V-D).
	results, err := e.Search("alice", "car")
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Println("alice searches the handle index for \"car\"; trust-chain ranking of the owners:")
	for i, r := range results {
		fmt.Printf("  %d. %-15s score=%.3f  chain=%v\n", i+1, r.Handle, r.Score, r.Chain)
	}
	best := results[0]

	// Steps 3+4 — alice holds a credential carol authorized for her
	// friends. The request is routed through trusted friends (V-B) and
	// dereferenced under a pseudonym with a zero-knowledge proof of
	// possession (V-B + V-C); the outcome records what each party saw.
	aliceCred, err := zkpauth.NewCredential()
	if err != nil {
		log.Fatalf("credential: %v", err)
	}
	if err := e.Authorize(best.Owner, aliceCred); err != nil {
		log.Fatalf("authorize: %v", err)
	}
	out, err := e.Fetch("alice", best, aliceCred, 0)
	if err != nil {
		log.Fatalf("fetch: %v", err)
	}
	fmt.Printf("\nfriend-routed request to %s (%d hops):\n", best.Owner, len(out.RouteObservations))
	for _, obs := range out.RouteObservations {
		fmt.Printf("  %-6s saw the request coming from %q\n", obs.Node, obs.SawRequestFrom)
	}
	fmt.Printf("  nodes able to identify alice as the searcher: %v\n", out.SearcherVisibleTo)
	fmt.Printf("\npseudonymous dereference as %q succeeded:\n  %s\n", out.Pseudonym, out.Content)

	// Dana sits on the same friend graph but carol never authorized her
	// credential: the route works, the dereference does not.
	danaCred, err := zkpauth.NewCredential()
	if err != nil {
		log.Fatalf("credential: %v", err)
	}
	denied, err := e.Fetch("dana", best, danaCred, 0)
	if !errors.Is(err, securesearch.ErrNoAccess) {
		log.Fatalf("unauthorized fetch: got %v, want %v", err, securesearch.ErrNoAccess)
	}
	fmt.Printf("\ndana's unauthorized dereference as %q: rejected (%v)\n", denied.Pseudonym, err)
}

// proxiedSearch is the prologue: the directory logs who asks, a proxy
// alias hides alice from it, and a colluding proxy gives her away again.
func proxiedSearch() {
	dir := proxy.NewDirectory()
	dir.Add("carol", "carol@node-17")
	if _, err := dir.Query("alice", "carol"); err != nil {
		log.Fatalf("direct query: %v", err)
	}
	fmt.Printf("direct query: the directory observed searchers %v\n", dir.Observed("carol"))

	p := proxy.NewServer("proxy-a")
	alias := p.Register("alice")
	if _, err := p.Search("alice", "carol", dir); err != nil {
		log.Fatalf("proxied search: %v", err)
	}
	seen := dir.Observed("carol")
	if len(seen) != 2 || seen[1] != alias {
		log.Fatalf("proxied query: directory observed %v, want [alice %s]", seen, alias)
	}
	fmt.Printf("via proxy alias: the directory observed searchers %v\n", seen)
	exposed := proxy.Collude(dir, "carol", p)
	if len(exposed) != 1 || exposed[0] != "alice" {
		log.Fatalf("collusion exposed %v, want [alice]", exposed)
	}
	fmt.Printf("collusion with the proxy exposes %v; friend routing below needs no proxy\n\n", exposed)
}
