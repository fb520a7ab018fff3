package securesearch

import (
	"errors"
	"testing"

	"godosn/internal/search/zkpauth"
	"godosn/internal/social/graph"
)

func buildEngine(t *testing.T) (*Engine, *graph.Graph) {
	t.Helper()
	g := graph.New()
	for _, u := range []string{"alice", "bob", "dana", "carol", "carla", "island"} {
		g.AddUser(u)
	}
	g.Befriend("alice", "bob", 0.95)
	g.Befriend("alice", "dana", 0.4)
	g.Befriend("bob", "carol", 0.9)
	g.Befriend("dana", "carla", 0.9)
	e := New(g)
	e.Publish("carol", "profile", "carol's profile data")
	e.Publish("carla", "profile", "carla's profile data")
	e.Publish("island", "profile", "unreachable data")
	return e, g
}

func TestSearchRanksByTrust(t *testing.T) {
	e, _ := buildEngine(t)
	results, err := e.Search("alice", "profile")
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Owner != "carol" {
		t.Fatalf("top result %q, want carol (stronger trust chain)", results[0].Owner)
	}
	// The isolated owner ranks last with zero score.
	last := results[len(results)-1]
	if last.Owner != "island" || last.Score != 0 {
		t.Fatalf("last = %+v", last)
	}
}

func TestSearchNeverReturnsContent(t *testing.T) {
	e, _ := buildEngine(t)
	results, _ := e.Search("alice", "profile")
	for _, r := range results {
		if r.Handle == "carol's profile data" {
			t.Fatal("search leaked content")
		}
	}
}

func TestFullFlowWithAuthorization(t *testing.T) {
	e, _ := buildEngine(t)
	cred, err := zkpauth.NewCredential()
	if err != nil {
		t.Fatalf("NewCredential: %v", err)
	}
	if err := e.Authorize("carol", cred); err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	outcome, err := e.SearchAndFetch("alice", "profile", cred, 0)
	if err != nil {
		t.Fatalf("SearchAndFetch: %v", err)
	}
	if outcome.Content != "carol's profile data" {
		t.Fatalf("Content = %q", outcome.Content)
	}
	// Leakage audit: only alice's direct friend could identify her.
	if len(outcome.SearcherVisibleTo) != 1 || outcome.SearcherVisibleTo[0] != "bob" {
		t.Fatalf("SearcherVisibleTo = %v", outcome.SearcherVisibleTo)
	}
	// Carol saw only a pseudonym.
	if outcome.Pseudonym == "" || outcome.Pseudonym == "alice" {
		t.Fatalf("Pseudonym = %q", outcome.Pseudonym)
	}
}

func TestFetchWithoutAuthorizationDenied(t *testing.T) {
	e, _ := buildEngine(t)
	cred, _ := zkpauth.NewCredential()
	results, _ := e.Search("alice", "profile")
	_, err := e.Fetch("alice", results[0], cred, 0)
	if !errors.Is(err, ErrNoAccess) {
		t.Fatalf("got %v, want ErrNoAccess", err)
	}
}

func TestSearchNoResults(t *testing.T) {
	e, _ := buildEngine(t)
	if _, err := e.Search("alice", "nonexistent"); !errors.Is(err, ErrNoResults) {
		t.Fatalf("got %v, want ErrNoResults", err)
	}
}

func TestAuthorizeUnknownOwner(t *testing.T) {
	e, _ := buildEngine(t)
	cred, _ := zkpauth.NewCredential()
	if err := e.Authorize("ghost", cred); err == nil {
		t.Fatal("authorized with unknown owner")
	}
}

func TestSearchAndFetchFallsThroughDeniedCandidates(t *testing.T) {
	// Alice is authorized only with carla (the lower-ranked owner): the
	// flow must fall through carol's denial to carla's grant.
	e, _ := buildEngine(t)
	cred, _ := zkpauth.NewCredential()
	if err := e.Authorize("carla", cred); err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	outcome, err := e.SearchAndFetch("alice", "profile", cred, 0)
	if err != nil {
		t.Fatalf("SearchAndFetch: %v", err)
	}
	if outcome.Content != "carla's profile data" {
		t.Fatalf("Content = %q", outcome.Content)
	}
}

func TestRouteBoundRespected(t *testing.T) {
	e, _ := buildEngine(t)
	cred, _ := zkpauth.NewCredential()
	e.Authorize("carol", cred)
	results, _ := e.Search("alice", "profile")
	// carol is 2 hops away; a 1-hop bound must fail the route.
	if _, err := e.Fetch("alice", results[0], cred, 1); err == nil {
		t.Fatal("route bound ignored")
	}
}
