// Package workload generates synthetic social graphs, trust assignments,
// content popularity distributions and action mixes for the experiment
// harness.
//
// The paper evaluates nothing quantitatively, so the harness needs realistic
// inputs: social graphs with small-world / scale-free shape (Watts–Strogatz
// and Barabási–Albert generators), Zipf-distributed content popularity, and
// seeded determinism so every experiment is reproducible (DESIGN.md §2,
// substitution 4).
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Errors returned by this package.
var (
	ErrBadParams = errors.New("workload: invalid parameters")
)

// Graph is an undirected social graph over users 0..N-1.
type Graph struct {
	// N is the number of users.
	N int
	// Adj maps each user to its sorted friend list.
	Adj [][]int
}

// NewGraph creates an empty graph with n users.
func NewGraph(n int) *Graph {
	return &Graph{N: n, Adj: make([][]int, n)}
}

// preallocAdj sizes every adjacency slice for an expected degree, so edge
// insertion during generation does not repeatedly grow-and-copy.
func (g *Graph) preallocAdj(degree int) {
	if degree < 1 {
		return
	}
	for u := range g.Adj {
		g.Adj[u] = make([]int, 0, degree)
	}
}

// AddEdge inserts an undirected friendship (idempotent).
func (g *Graph) AddEdge(a, b int) {
	if a == b || a < 0 || b < 0 || a >= g.N || b >= g.N {
		return
	}
	if !containsInt(g.Adj[a], b) {
		g.Adj[a] = insertSorted(g.Adj[a], b)
		g.Adj[b] = insertSorted(g.Adj[b], a)
	}
}

// HasEdge reports whether a and b are friends.
func (g *Graph) HasEdge(a, b int) bool {
	if a < 0 || a >= g.N {
		return false
	}
	return containsInt(g.Adj[a], b)
}

// Degree returns the number of friends of u.
func (g *Graph) Degree(u int) int { return len(g.Adj[u]) }

// Friends returns a copy of u's friend list.
func (g *Graph) Friends(u int) []int {
	return append([]int(nil), g.Adj[u]...)
}

func containsInt(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// WattsStrogatz generates a small-world graph: a ring lattice with k
// neighbors per side... k must be even and >= 2; beta in [0,1] is the
// rewiring probability.
func WattsStrogatz(n, k int, beta float64, seed int64) (*Graph, error) {
	if n < 3 || k < 2 || k%2 != 0 || k >= n || beta < 0 || beta > 1 {
		return nil, fmt.Errorf("%w: WattsStrogatz(n=%d, k=%d, beta=%f)", ErrBadParams, n, k, beta)
	}
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	g.preallocAdj(k + 2) // lattice degree k, plus slack for rewired edges
	// Ring lattice.
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			g.AddEdge(u, (u+j)%n)
		}
	}
	// Rewire each lattice edge with probability beta.
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() >= beta {
				continue
			}
			// Pick a new target not already adjacent.
			for attempts := 0; attempts < 32; attempts++ {
				w := rng.Intn(n)
				if w == u || g.HasEdge(u, w) {
					continue
				}
				g.removeEdge(u, v)
				g.AddEdge(u, w)
				break
			}
		}
	}
	return g, nil
}

func (g *Graph) removeEdge(a, b int) {
	g.Adj[a] = removeSorted(g.Adj[a], b)
	g.Adj[b] = removeSorted(g.Adj[b], a)
}

func removeSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// BarabasiAlbert generates a scale-free graph by preferential attachment:
// each new node attaches to m existing nodes with probability proportional
// to their degree.
func BarabasiAlbert(n, m int, seed int64) (*Graph, error) {
	if n < 2 || m < 1 || m >= n {
		return nil, fmt.Errorf("%w: BarabasiAlbert(n=%d, m=%d)", ErrBadParams, n, m)
	}
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	g.preallocAdj(2 * m) // new nodes attach with degree m; hubs grow past it
	// Seed clique of m+1 nodes.
	for a := 0; a <= m; a++ {
		for b := a + 1; b <= m; b++ {
			g.AddEdge(a, b)
		}
	}
	// Degree-weighted endpoint pool, sized for its final length: two slots
	// per edge — the clique's m(m+1) plus 2m per attached node.
	pool := make([]int, 0, m*(m+1)+2*m*(n-m-1))
	for u := 0; u <= m; u++ {
		for i := 0; i < g.Degree(u); i++ {
			pool = append(pool, u)
		}
	}
	for u := m + 1; u < n; u++ {
		attached := make(map[int]bool, m)
		for len(attached) < m {
			target := pool[rng.Intn(len(pool))]
			if target == u || attached[target] {
				continue
			}
			attached[target] = true
			g.AddEdge(u, target)
		}
		for target := range attached {
			pool = append(pool, target, u)
		}
	}
	return g, nil
}

// TrustAssignment gives every friendship a trust level in (0,1], used by the
// trust-chain search ranking (paper Section V-D).
type TrustAssignment struct {
	trust map[[2]int]float64
}

// NewTrust assigns seeded random trust in [minTrust, 1] to every edge.
func NewTrust(g *Graph, minTrust float64, seed int64) *TrustAssignment {
	rng := rand.New(rand.NewSource(seed))
	t := &TrustAssignment{trust: make(map[[2]int]float64)}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Adj[u] {
			if u < v {
				t.trust[[2]int{u, v}] = minTrust + rng.Float64()*(1-minTrust)
			}
		}
	}
	return t
}

// Trust returns the trust on edge (u,v), zero when not friends.
func (t *TrustAssignment) Trust(u, v int) float64 {
	if u > v {
		u, v = v, u
	}
	return t.trust[[2]int{u, v}]
}

// Set overrides the trust on an edge.
func (t *TrustAssignment) Set(u, v int, trust float64) {
	if u > v {
		u, v = v, u
	}
	t.trust[[2]int{u, v}] = trust
}

// Zipf produces content indices with Zipf-distributed popularity, modeling
// skewed access to posts/profiles.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a Zipf sampler over [0, n) with skew s > 1.
func NewZipf(n int, s float64, seed int64) (*Zipf, error) {
	if n < 1 || s <= 1 {
		return nil, fmt.Errorf("%w: NewZipf(n=%d, s=%f)", ErrBadParams, n, s)
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}, nil
}

// Next samples a content index.
func (z *Zipf) Next() int { return int(z.z.Uint64()) }

// ActionKind is one step of a synthetic OSN workload.
type ActionKind int

// Workload action kinds.
const (
	ActionPost ActionKind = iota + 1
	ActionComment
	ActionReadFeed
	ActionSearch
)

// String renders the action name.
func (a ActionKind) String() string {
	switch a {
	case ActionPost:
		return "post"
	case ActionComment:
		return "comment"
	case ActionReadFeed:
		return "read"
	case ActionSearch:
		return "search"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Mix is a distribution over actions; weights need not sum to 1.
type Mix struct {
	Post, Comment, Read, Search float64
}

// DefaultMix is a read-heavy OSN mix.
func DefaultMix() Mix { return Mix{Post: 0.1, Comment: 0.15, Read: 0.7, Search: 0.05} }

// UserNames renders canonical user names for graph indices.
func UserNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%04d", i)
	}
	return out
}
