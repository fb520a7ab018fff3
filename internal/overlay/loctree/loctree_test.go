package loctree

import (
	"errors"
	"fmt"
	"testing"
)

func TestRegisterAndQuery(t *testing.T) {
	tr := New()
	if _, err := tr.Register("alice", "/tr/istanbul/kadikoy"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tr.Register("bob", "/tr/istanbul/besiktas")
	tr.Register("carol", "/tr/ankara")
	tr.Register("dave", "/de/berlin")

	res, err := tr.Query("/tr/istanbul")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Users) != 2 || res.Users[0] != "alice" || res.Users[1] != "bob" {
		t.Fatalf("Query(/tr/istanbul) = %v", res.Users)
	}
	res, _ = tr.Query("/tr")
	if len(res.Users) != 3 {
		t.Fatalf("Query(/tr) = %v", res.Users)
	}
	res, _ = tr.Query("/")
	if len(res.Users) != 4 {
		t.Fatalf("Query(/) = %v", res.Users)
	}
	res, _ = tr.Query("/fr")
	if len(res.Users) != 0 {
		t.Fatalf("Query(/fr) = %v", res.Users)
	}
}

func TestQueryVisitsOnlyMatchingSubtree(t *testing.T) {
	// The scalability claim: a query's cost depends on the matching
	// subtree, not on the total population.
	tr := New()
	for i := 0; i < 200; i++ {
		tr.Register(fmt.Sprintf("user-%d", i), fmt.Sprintf("/us/city-%d", i%20))
	}
	tr.Register("alice", "/tr/istanbul")
	res, err := tr.Query("/tr")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Users) != 1 {
		t.Fatalf("Users = %v", res.Users)
	}
	// Path (/ + tr) + istanbul = 3 nodes, regardless of the 200 US users.
	if res.NodesVisited > 3 {
		t.Fatalf("visited %d nodes; query leaked into sibling regions", res.NodesVisited)
	}
}

func TestMoveUpdatesPresence(t *testing.T) {
	tr := New()
	tr.Register("alice", "/tr/istanbul")
	tr.Register("alice", "/de/berlin")
	res, _ := tr.Query("/tr")
	if len(res.Users) != 0 {
		t.Fatalf("stale presence after move: %v", res.Users)
	}
	res, _ = tr.Query("/de")
	if len(res.Users) != 1 {
		t.Fatalf("missing presence after move: %v", res.Users)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	tr := New()
	tr.Register("alice", "/tr")
	visited, err := tr.Register("alice", "/tr")
	if err != nil || visited != 0 {
		t.Fatalf("re-register cost %d, %v", visited, err)
	}
	if res, _ := tr.Query("/tr"); len(res.Users) != 1 {
		t.Fatalf("Query(/tr) = %v", res.Users)
	}
}

func TestCountUnderAggregation(t *testing.T) {
	tr := New()
	tr.Register("a", "/tr/istanbul/kadikoy")
	tr.Register("b", "/tr/istanbul/besiktas")
	tr.Register("c", "/tr/ankara")
	for region, want := range map[string]int{
		"/tr": 3, "/tr/istanbul": 2, "/tr/ankara": 1, "/de": 0,
	} {
		if res, err := tr.Query(region); err != nil || len(res.Users) != want {
			t.Fatalf("Query(%s) = %v, want %d users (%v)", region, res.Users, want, err)
		}
	}
}

func TestEmptySubtreesPruned(t *testing.T) {
	tr := New()
	tr.Register("a", "/x/deep/nest/one")
	tr.Register("a", "/y") // moving away empties the deep chain
	tr.Register("b", "/x/shallow")
	res, _ := tr.Query("/x")
	// /x + shallow visited; the empty deep/nest/one chain must be pruned
	// by the aggregated counts.
	if res.NodesVisited > 3 {
		t.Fatalf("visited %d nodes; empty subtree not pruned", res.NodesVisited)
	}
}

func TestBadRegions(t *testing.T) {
	tr := New()
	for _, region := range []string{"", "tr/istanbul", "/tr//istanbul"} {
		if _, err := tr.Register("alice", region); !errors.Is(err, ErrBadRegion) {
			t.Errorf("Register(%q): %v", region, err)
		}
		if _, err := tr.Query(region); !errors.Is(err, ErrBadRegion) {
			t.Errorf("Query(%q): %v", region, err)
		}
	}
}
