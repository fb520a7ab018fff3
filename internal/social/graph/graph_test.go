package graph

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, u := range []string{"alice", "bob", "carol"} {
		g.AddUser(u)
	}
	if err := g.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatalf("Befriend: %v", err)
	}
	if err := g.Befriend("bob", "carol", 0.8); err != nil {
		t.Fatalf("Befriend: %v", err)
	}
	return g
}

func TestBefriendSymmetric(t *testing.T) {
	g := buildTriangle(t)
	if !slices.Contains(g.Friends("alice"), "bob") || !slices.Contains(g.Friends("bob"), "alice") {
		t.Fatal("friendship not symmetric")
	}
	if g.Trust("alice", "bob") != 0.9 || g.Trust("bob", "alice") != 0.9 {
		t.Fatal("trust not symmetric")
	}
	if slices.Contains(g.Friends("alice"), "carol") {
		t.Fatal("phantom friendship")
	}
}

func TestBefriendValidation(t *testing.T) {
	g := New()
	g.AddUser("a")
	if err := g.Befriend("a", "a", 0.5); !errors.Is(err, ErrSelfEdge) {
		t.Fatalf("self edge: %v", err)
	}
	if err := g.Befriend("a", "ghost", 0.5); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user: %v", err)
	}
	g.AddUser("b")
	if err := g.Befriend("a", "b", 0); !errors.Is(err, ErrBadTrust) {
		t.Fatalf("zero trust: %v", err)
	}
	if err := g.Befriend("a", "b", 1.5); !errors.Is(err, ErrBadTrust) {
		t.Fatalf("excess trust: %v", err)
	}
}

func TestFriendsSorted(t *testing.T) {
	g := New()
	for _, u := range []string{"m", "z", "a", "k"} {
		g.AddUser(u)
	}
	g.Befriend("m", "z", 0.5)
	g.Befriend("m", "a", 0.5)
	g.Befriend("m", "k", 0.5)
	friends := g.Friends("m")
	if len(friends) != 3 || friends[0] != "a" || friends[1] != "k" || friends[2] != "z" {
		t.Fatalf("Friends = %v", friends)
	}
	if g.Degree("m") != 3 {
		t.Fatalf("Degree = %d", g.Degree("m"))
	}
}

func TestBestTrustPathDirect(t *testing.T) {
	g := buildTriangle(t)
	p, err := g.BestTrustPath("alice", "bob", 0)
	if err != nil {
		t.Fatalf("BestTrustPath: %v", err)
	}
	if len(p.Users) != 2 || p.Trust != 0.9 {
		t.Fatalf("path = %+v", p)
	}
}

func TestBestTrustPathTransitive(t *testing.T) {
	// The Section V-D example: Alice trusts Bob, Bob trusts Sara => Alice
	// can trust Sara with chained trust.
	g := New()
	for _, u := range []string{"alice", "bob", "sara"} {
		g.AddUser(u)
	}
	g.Befriend("alice", "bob", 0.9)
	g.Befriend("bob", "sara", 0.8)
	p, err := g.BestTrustPath("alice", "sara", 0)
	if err != nil {
		t.Fatalf("BestTrustPath: %v", err)
	}
	want := 0.9 * 0.8
	if math.Abs(p.Trust-want) > 1e-9 {
		t.Fatalf("Trust = %f, want %f", p.Trust, want)
	}
	if len(p.Users) != 3 || p.Users[1] != "bob" {
		t.Fatalf("Users = %v", p.Users)
	}
}

func TestBestTrustPathPicksStrongerChain(t *testing.T) {
	g := New()
	for _, u := range []string{"s", "t", "weak", "strong1", "strong2"} {
		g.AddUser(u)
	}
	// Short weak path vs longer strong path.
	g.Befriend("s", "weak", 0.3)
	g.Befriend("weak", "t", 0.3) // product 0.09
	g.Befriend("s", "strong1", 0.95)
	g.Befriend("strong1", "strong2", 0.95)
	g.Befriend("strong2", "t", 0.95) // product ~0.857
	p, err := g.BestTrustPath("s", "t", 0)
	if err != nil {
		t.Fatalf("BestTrustPath: %v", err)
	}
	if len(p.Users) != 4 {
		t.Fatalf("picked path %v (trust %f), want the strong chain", p.Users, p.Trust)
	}
}

func TestBestTrustPathMaxLen(t *testing.T) {
	g := New()
	for _, u := range []string{"a", "b", "c"} {
		g.AddUser(u)
	}
	g.Befriend("a", "b", 0.9)
	g.Befriend("b", "c", 0.9)
	if _, err := g.BestTrustPath("a", "c", 1); err == nil {
		t.Fatal("found 2-hop path under maxLen 1")
	}
	if _, err := g.BestTrustPath("a", "c", 2); err != nil {
		t.Fatalf("2-hop path under maxLen 2: %v", err)
	}
}

func TestBestTrustPathNoPath(t *testing.T) {
	g := New()
	g.AddUser("a")
	g.AddUser("island")
	if _, err := g.BestTrustPath("a", "island", 0); err == nil {
		t.Fatal("found path to isolated node")
	}
	if _, err := g.BestTrustPath("a", "ghost", 0); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown target: %v", err)
	}
}

func TestBestTrustPathSelf(t *testing.T) {
	g := New()
	g.AddUser("a")
	p, err := g.BestTrustPath("a", "a", 0)
	if err != nil || p.Trust != 1 || len(p.Users) != 1 {
		t.Fatalf("self path: %+v, %v", p, err)
	}
}

func TestFriendsOfFriends(t *testing.T) {
	g := New()
	for _, u := range []string{"alice", "bob", "carol", "dave"} {
		g.AddUser(u)
	}
	g.Befriend("alice", "bob", 0.9)
	g.Befriend("bob", "carol", 0.9)
	g.Befriend("carol", "dave", 0.9)
	fof := g.FriendsOfFriends("alice")
	if len(fof) != 1 || fof[0] != "carol" {
		t.Fatalf("FriendsOfFriends = %v, want [carol]", fof)
	}
}

func TestUsersSorted(t *testing.T) {
	g := New()
	for _, u := range []string{"c", "a", "b"} {
		g.AddUser(u)
	}
	users := g.Users()
	if len(users) != 3 || users[0] != "a" || users[2] != "c" {
		t.Fatalf("Users = %v", users)
	}
}
