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
