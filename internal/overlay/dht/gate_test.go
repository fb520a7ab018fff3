package dht

import (
	"errors"
	"fmt"
	"testing"

	"godosn/internal/resilience"
	"godosn/internal/resilience/load"
	"godosn/internal/telemetry"
)

// floodStores fires count stores from origin, returning how many were shed.
func floodStores(t *testing.T, d *DHT, origin string, count int) (sheds int) {
	t.Helper()
	for i := 0; i < count; i++ {
		_, err := d.Store(origin, fmt.Sprintf("flood-%d", i), []byte("x"))
		switch {
		case err == nil:
		case errors.Is(err, load.ErrShed):
			sheds++
		default:
			t.Fatalf("Store: %v", err)
		}
	}
	return sheds
}

func TestNodeGateDisabledAdmitsEverything(t *testing.T) {
	d, _, names := buildDHT(t, 8, Config{ReplicationFactor: 2})
	if got := floodStores(t, d, string(names[0]), 40); got != 0 {
		t.Fatalf("ungated DHT shed %d stores", got)
	}
	if total := d.NodeShedTotal(); total != 0 {
		t.Fatalf("ungated shed total = %d", total)
	}
	if sheds := d.NodeSheds(); len(sheds) != 0 {
		t.Fatalf("ungated NodeSheds non-empty: %v", sheds)
	}
	d.Tick() // must be a no-op, not a panic
}

func TestNodeGateShedsBeyondBudget(t *testing.T) {
	d, _, names := buildDHT(t, 8, Config{
		ReplicationFactor: 2,
		NodeGate:          load.GateConfig{PerTick: 2, QueueDepth: 1},
	})
	sheds := floodStores(t, d, string(names[0]), 40)
	if sheds == 0 {
		t.Fatalf("tight gate shed nothing across 40 stores")
	}
	if total := d.NodeShedTotal(); total != int64(0) && total < int64(sheds) {
		t.Fatalf("shed total %d < observed client sheds %d", total, sheds)
	}
	var sum int64
	for _, n := range d.NodeSheds() {
		sum += n
	}
	if sum != d.NodeShedTotal() {
		t.Fatalf("per-node sum %d != total %d", sum, d.NodeShedTotal())
	}

	// Refilled gates admit again.
	d.Tick()
	if _, err := d.Store(string(names[0]), "after-tick", []byte("y")); err != nil {
		t.Fatalf("store after Tick: %v", err)
	}
}

func TestNodeGateShedClassifiesAsOverload(t *testing.T) {
	d, _, names := buildDHT(t, 4, Config{
		ReplicationFactor: 1,
		NodeGate:          load.GateConfig{PerTick: 1, QueueDepth: 0},
	})
	var shed error
	for i := 0; i < 20 && shed == nil; i++ {
		if _, err := d.Store(string(names[0]), fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			shed = err
		}
	}
	if shed == nil {
		t.Fatalf("no shed surfaced")
	}
	if !errors.Is(shed, load.ErrShed) {
		t.Fatalf("shed error %v does not wrap load.ErrShed", shed)
	}
	if f := resilience.Classify(shed); f != resilience.FaultOverload {
		t.Fatalf("Classify(%v) = %v, want FaultOverload", shed, f)
	}
}

func TestNodeGateTelemetryCounters(t *testing.T) {
	d, _, names := buildDHT(t, 4, Config{
		ReplicationFactor: 1,
		NodeGate:          load.GateConfig{PerTick: 1, QueueDepth: 0},
	})
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	floodStores(t, d, string(names[0]), 30)
	total := d.NodeShedTotal()
	if total == 0 {
		t.Fatalf("flood shed nothing")
	}
	if got := reg.Counter("dht_gate_sheds_total").Value(); got != total {
		t.Fatalf("telemetry total %d != shed total %d", got, total)
	}
	var mirrored int64
	for id, n := range d.NodeSheds() {
		c := reg.Counter("dht_gate_sheds_" + id).Value()
		if c != n {
			t.Fatalf("node %s telemetry %d != counted %d", id, c, n)
		}
		mirrored += c
	}
	if mirrored != total {
		t.Fatalf("mirrored per-node sum %d != total %d", mirrored, total)
	}
}
