package workload

import (
	"testing"
	"testing/quick"
)

func TestWattsStrogatz(t *testing.T) {
	g, err := WattsStrogatz(100, 6, 0.1, 1)
	if err != nil {
		t.Fatalf("WattsStrogatz: %v", err)
	}
	if g.N != 100 {
		t.Fatalf("N = %d", g.N)
	}
	// Edge count is preserved by rewiring: n*k/2.
	if got := edges(g); got != 300 {
		t.Fatalf("Edges = %d, want 300", got)
	}
	for u := 0; u < g.N; u++ {
		if g.Degree(u) == 0 {
			t.Fatalf("isolated node %d", u)
		}
	}
}

// edges counts g's undirected edges.
func edges(g *Graph) int {
	total := 0
	for u := 0; u < g.N; u++ {
		total += g.Degree(u)
	}
	return total / 2
}

func TestWattsStrogatzValidation(t *testing.T) {
	cases := []struct{ n, k int }{{2, 2}, {10, 3}, {10, 0}, {5, 6}}
	for _, c := range cases {
		if _, err := WattsStrogatz(c.n, c.k, 0.1, 1); err == nil {
			t.Errorf("accepted n=%d k=%d", c.n, c.k)
		}
	}
	if _, err := WattsStrogatz(10, 2, 1.5, 1); err == nil {
		t.Error("accepted beta > 1")
	}
}

func TestWattsStrogatzDeterministic(t *testing.T) {
	a, _ := WattsStrogatz(50, 4, 0.3, 7)
	b, _ := WattsStrogatz(50, 4, 0.3, 7)
	for u := 0; u < 50; u++ {
		if len(a.Adj[u]) != len(b.Adj[u]) {
			t.Fatal("graph not deterministic")
		}
		for i := range a.Adj[u] {
			if a.Adj[u][i] != b.Adj[u][i] {
				t.Fatal("graph not deterministic")
			}
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(200, 3, 2)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	// Scale-free: the max degree should be far above the minimum (m).
	maxDeg := 0
	for u := 0; u < g.N; u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
		if g.Degree(u) < 3 {
			t.Fatalf("node %d degree %d < m", u, g.Degree(u))
		}
	}
	if maxDeg < 10 {
		t.Fatalf("max degree %d too small for preferential attachment", maxDeg)
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	if _, err := BarabasiAlbert(1, 1, 1); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := BarabasiAlbert(5, 0, 1); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := BarabasiAlbert(5, 5, 1); err == nil {
		t.Error("accepted m>=n")
	}
}

func TestGraphEdgeOps(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // idempotent
	g.AddEdge(3, 3) // self loop ignored
	g.AddEdge(-1, 2)
	g.AddEdge(0, 9)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge missing")
	}
	if edges(g) != 1 {
		t.Fatalf("edges = %d", edges(g))
	}
	if g.HasEdge(3, 3) || g.HasEdge(0, 9) {
		t.Fatal("invalid edge present")
	}
	f := g.Friends(0)
	f[0] = 99
	if g.Adj[0][0] == 99 {
		t.Fatal("Friends exposed internal slice")
	}
}

func TestTrustAssignment(t *testing.T) {
	g, _ := WattsStrogatz(30, 4, 0, 3)
	tr := NewTrust(g, 0.5, 3)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Adj[u] {
			trust := tr.Trust(u, v)
			if trust < 0.5 || trust > 1 {
				t.Fatalf("trust(%d,%d) = %f out of range", u, v, trust)
			}
			if tr.Trust(v, u) != trust {
				t.Fatal("trust not symmetric")
			}
		}
	}
	if tr.Trust(0, 15) != 0 && g.HasEdge(0, 15) == false {
		t.Fatal("non-edge has trust")
	}
	tr.Set(0, 1, 0.25)
	if tr.Trust(1, 0) != 0.25 {
		t.Fatal("Set not applied symmetrically")
	}
}

func TestZipf(t *testing.T) {
	z, err := NewZipf(100, 1.2, 5)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		idx := z.Next()
		if idx < 0 || idx >= 100 {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	// Head must dominate the tail.
	if counts[0] < counts[50]*2 {
		t.Fatalf("not skewed: head %d vs mid %d", counts[0], counts[50])
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1.2, 1); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewZipf(10, 1.0, 1); err == nil {
		t.Error("accepted s=1")
	}
}

// TestMixActions: the default mix, as the stream samples it, is read-heavy
// and emits every action kind, each with a name.
func TestMixActions(t *testing.T) {
	counts := map[ActionKind]int{}
	for _, a := range drain(t, StreamConfig{Users: 200, Ops: 10000, Seed: 9}) {
		counts[a.Kind]++
	}
	if counts[ActionReadFeed] < counts[ActionPost] {
		t.Fatal("read-heavy mix produced fewer reads than posts")
	}
	for _, k := range []ActionKind{ActionPost, ActionComment, ActionReadFeed, ActionSearch} {
		if counts[k] == 0 {
			t.Fatalf("action %s never sampled", k)
		}
		if k.String() == "" {
			t.Fatal("empty action name")
		}
	}
}

func TestUserNames(t *testing.T) {
	names := UserNames(3)
	if len(names) != 3 || names[0] != "user-0000" || names[2] != "user-0002" {
		t.Fatalf("UserNames = %v", names)
	}
}

func TestQuickGraphSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g, err := WattsStrogatz(40, 4, 0.5, seed)
		if err != nil {
			return false
		}
		for u := 0; u < g.N; u++ {
			for _, v := range g.Adj[u] {
				if !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
