// Package graph maintains the social graph: friendships between named users,
// with per-edge trust levels.
//
// The paper treats the social graph itself as sensitive ("Users' relations
// are source of important information", Section VI) and uses trust between
// friends both for routing (Section V-B, trusted friends network) and for
// ranking search results (Section V-D). This package is that substrate: an
// undirected weighted graph with path search used by internal/search.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by this package.
var (
	ErrUnknownUser = errors.New("graph: unknown user")
	ErrSelfEdge    = errors.New("graph: self friendship")
	ErrBadTrust    = errors.New("graph: trust must be in (0, 1]")
)

// Graph is the social graph. It is safe for concurrent use.
type Graph struct {
	mu    sync.RWMutex
	adj   map[string]map[string]float64 // user -> friend -> trust
	users map[string]struct{}
}

// New creates an empty social graph.
func New() *Graph {
	return &Graph{
		adj:   make(map[string]map[string]float64),
		users: make(map[string]struct{}),
	}
}

// AddUser registers a user (idempotent).
func (g *Graph) AddUser(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.users[name] = struct{}{}
	if g.adj[name] == nil {
		g.adj[name] = make(map[string]float64)
	}
}

// Befriend creates (or updates) a mutual friendship with the given trust in
// (0, 1].
func (g *Graph) Befriend(a, b string, trust float64) error {
	if a == b {
		return ErrSelfEdge
	}
	if trust <= 0 || trust > 1 {
		return fmt.Errorf("%w: %f", ErrBadTrust, trust)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, u := range []string{a, b} {
		if _, ok := g.users[u]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownUser, u)
		}
	}
	g.adj[a][b] = trust
	g.adj[b][a] = trust
	return nil
}

// Trust returns the trust on the friendship (0 when not friends).
func (g *Graph) Trust(a, b string) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.adj[a][b]
}

// Friends returns a's sorted friend list.
func (g *Graph) Friends(a string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.adj[a]))
	for f := range g.adj[a] {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Users returns all registered users sorted.
func (g *Graph) Users() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.users))
	for u := range g.users {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Degree returns the number of friends of a.
func (g *Graph) Degree(a string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj[a])
}

// Path is a friend chain with its aggregate trust.
type Path struct {
	// Users is the chain from source to target inclusive.
	Users []string
	// Trust is the chain trust: the product of edge trusts, implementing
	// Section V-D's "function of trust levels of every intermediate friend
	// of that chain to the successor friend".
	Trust float64
}

// BestTrustPath finds the maximum-trust chain from source to target using
// Dijkstra over -log(trust) (equivalently: maximizing the trust product).
// maxLen bounds the chain length in edges (0 = unbounded).
func (g *Graph) BestTrustPath(source, target string, maxLen int) (Path, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.users[source]; !ok {
		return Path{}, fmt.Errorf("%w: %s", ErrUnknownUser, source)
	}
	if _, ok := g.users[target]; !ok {
		return Path{}, fmt.Errorf("%w: %s", ErrUnknownUser, target)
	}
	if source == target {
		return Path{Users: []string{source}, Trust: 1}, nil
	}
	type state struct {
		trust float64
		hops  int
	}
	best := map[string]state{source: {trust: 1, hops: 0}}
	prev := map[string]string{}
	// Simple priority selection (graphs are small; O(V^2) is fine and
	// avoids heap bookkeeping).
	visited := map[string]bool{}
	for {
		// Pick the unvisited node with maximum trust.
		cur := ""
		curTrust := -1.0
		for u, s := range best {
			if !visited[u] && s.trust > curTrust {
				cur, curTrust = u, s.trust
			}
		}
		if cur == "" {
			break
		}
		if cur == target {
			break
		}
		visited[cur] = true
		cs := best[cur]
		if maxLen > 0 && cs.hops >= maxLen {
			continue
		}
		// Deterministic neighbor order.
		neighbors := make([]string, 0, len(g.adj[cur]))
		for nb := range g.adj[cur] {
			neighbors = append(neighbors, nb)
		}
		sort.Strings(neighbors)
		for _, nb := range neighbors {
			t := cs.trust * g.adj[cur][nb]
			if s, ok := best[nb]; !ok || t > s.trust {
				best[nb] = state{trust: t, hops: cs.hops + 1}
				prev[nb] = cur
			}
		}
	}
	s, ok := best[target]
	if !ok {
		return Path{}, fmt.Errorf("graph: no path from %s to %s", source, target)
	}
	// Reconstruct.
	var chain []string
	for u := target; u != source; u = prev[u] {
		chain = append(chain, u)
	}
	chain = append(chain, source)
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return Path{Users: chain, Trust: s.trust}, nil
}

// FriendsOfFriends returns the two-hop neighborhood of a (excluding a and
// direct friends), the candidate set for friend-finding search.
func (g *Graph) FriendsOfFriends(a string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	direct := g.adj[a]
	set := map[string]struct{}{}
	for f := range direct {
		for ff := range g.adj[f] {
			if ff == a {
				continue
			}
			if _, isDirect := direct[ff]; isDirect {
				continue
			}
			set[ff] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}
