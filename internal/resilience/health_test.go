package resilience

import (
	"fmt"
	"sync"
	"testing"
)

// openCircuit reports threshold failures against node.
func openCircuit(b *Breaker, node string) {
	for i := 0; i < breakerThreshold; i++ {
		b.Report(node, false)
	}
}

func TestBreakerOpensAtThresholdAndProbes(t *testing.T) {
	b := NewBreaker()
	for i := 0; i < breakerThreshold-1; i++ {
		b.Report("n", false)
		if b.Open("n") {
			t.Fatalf("circuit open after %d failures, threshold %d", i+1, breakerThreshold)
		}
	}
	b.Report("n", false)
	if !b.Open("n") {
		t.Fatal("circuit not open at threshold")
	}
	// Cooldown refusals, then one half-open probe.
	for i := 0; i < breakerCooldown; i++ {
		if b.Allow("n") {
			t.Fatalf("open circuit allowed call %d of the cooldown", i+1)
		}
	}
	if !b.Allow("n") {
		t.Fatal("half-open probe refused after cooldown")
	}
	// Failed probe re-opens for another full cooldown.
	b.Report("n", false)
	for i := 0; i < breakerCooldown; i++ {
		if b.Allow("n") {
			t.Fatalf("failed probe's circuit allowed call %d of the cooldown", i+1)
		}
	}
	if !b.Allow("n") {
		t.Fatal("second probe refused")
	}
	// Successful probe closes the circuit.
	b.Report("n", true)
	if b.Open("n") {
		t.Fatal("successful probe left the circuit open")
	}
	if !b.Allow("n") {
		t.Fatal("closed circuit refused a call")
	}
}

func TestBreakerIndependentPerNode(t *testing.T) {
	b := NewBreaker()
	openCircuit(b, "down")
	if !b.Open("down") {
		t.Fatal("node not open")
	}
	if !b.Allow("up") {
		t.Fatal("healthy node throttled by another node's circuit")
	}
}

func TestBreakerConcurrent(t *testing.T) {
	// Exercised with -race in CI: concurrent Allow/Report on overlapping
	// nodes must be safe and converge to a consistent state.
	b := NewBreaker()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				node := fmt.Sprintf("n%d", i%5)
				if b.Allow(node) {
					b.Report(node, i%3 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 5; i++ {
		node := fmt.Sprintf("n%d", i)
		b.Report(node, true)
		if b.Open(node) {
			t.Fatalf("%s open after success report", node)
		}
	}
}

func TestBreakerReset(t *testing.T) {
	b := NewBreaker()
	openCircuit(b, "n")
	if !b.Open("n") {
		t.Fatal("not open")
	}
	b.Reset()
	if b.Open("n") || !b.Allow("n") {
		t.Fatal("reset did not clear state")
	}
}

// The quarantine count behind Quarantined's lock-free answer follows every
// transition: after each step, Quarantined agrees with the locked state for
// every node and the count with QuarantinedNodes.
func TestQuarantineCountTracksTransitions(t *testing.T) {
	b := NewBreaker()
	nodes := []string{"a", "b", "c"}
	check := func(step string) {
		t.Helper()
		for _, n := range nodes {
			b.mu.Lock()
			s := b.nodes[n]
			want := s != nil && s.open && s.tainted
			b.mu.Unlock()
			if got := b.Quarantined(n); got != want {
				t.Fatalf("%s: Quarantined(%s) = %v, locked state says %v", step, n, got, want)
			}
		}
		if got, want := int(b.quarantined.Load()), len(b.QuarantinedNodes()); got != want {
			t.Fatalf("%s: count %d, %d nodes quarantined", step, got, want)
		}
	}
	check("fresh")
	b.ReportCorrupt("a") // closed node: tainted, one failure short of opening
	check("corrupt on closed a")
	for i := 1; i < breakerThreshold; i++ {
		b.Report("a", false)
	}
	check("a opens at the threshold")
	if !b.Quarantined("a") {
		t.Fatal("a tainted and open but not quarantined")
	}
	openCircuit(b, "b")
	check("b open for loss")
	b.ReportCorrupt("b") // already open: upgraded without a fresh open
	check("corrupt on open b")
	b.ReportCorrupt("b")
	check("corrupt on quarantined b")
	if n := b.quarantined.Load(); n != 2 {
		t.Fatalf("count %d with a and b quarantined", n)
	}
	b.Report("a", true)
	check("success closes a")
	openCircuit(b, "c")
	check("c open for loss")
	if !b.Unquarantine("b") || b.Unquarantine("c") {
		t.Fatal("Unquarantine: b was tainted, c was not")
	}
	check("unquarantine b")
	b.ReportCorrupt("c")
	check("corrupt on open c")
	b.Reset()
	check("reset")
	if b.quarantined.Load() != 0 {
		t.Fatal("reset left a quarantine count")
	}
}

// Eight goroutines mix reports, corruption verdicts, overrides and the
// lock-free check; afterwards the count still matches the nodes' states.
// Clean under -race.
func TestBreakerHammer(t *testing.T) {
	b := NewBreaker()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				node := fmt.Sprintf("n%d", (g+i)%6)
				switch i % 7 {
				case 0:
					b.ReportCorrupt(node)
				case 1, 2:
					b.Report(node, false)
				case 3:
					b.Report(node, i%3 == 0)
				case 4:
					if i%50 == 4 {
						b.Unquarantine(node)
					}
				default:
					b.Quarantined(node)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := int(b.quarantined.Load()), len(b.QuarantinedNodes()); got != want {
		t.Fatalf("count %d, %d nodes quarantined", got, want)
	}
	for i := 0; i < 6; i++ {
		node := fmt.Sprintf("n%d", i)
		b.Report(node, true)
		if b.Quarantined(node) {
			t.Fatalf("%s quarantined after a success", node)
		}
	}
	if b.quarantined.Load() != 0 {
		t.Fatalf("count %d after every node closed", b.quarantined.Load())
	}
}
