package core

import (
	"errors"
	"fmt"
	"testing"

	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/social/privacy"
)

func resilientNetwork(t *testing.T, users int) *Network {
	t.Helper()
	names := make([]string, users)
	var friendships []Friendship
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i)
	}
	for i := range names {
		friendships = append(friendships, Friendship{A: names[i], B: names[(i+1)%users], Trust: 0.9})
	}
	rcfg := resilience.DefaultConfig(0) // Seed 0: inherit the network seed.
	n, err := NewNetwork(Config{
		Seed:              21,
		Overlay:           OverlayDHT,
		Users:             names,
		Friendships:       friendships,
		ReplicationFactor: 3,
		Resilience:        &rcfg,
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func TestResilienceKnobRoutesTrafficThroughDecorator(t *testing.T) {
	n := resilientNetwork(t, 12)
	rk, ok := n.KV.(*resilience.KV)
	if !ok {
		t.Fatalf("KV is %T, want *resilience.KV", n.KV)
	}
	if rk.Name() != "structured-dht+resilient" {
		t.Fatalf("Name() = %q", rk.Name())
	}
	if _, ok := n.ResilienceMetrics(); !ok {
		t.Fatal("ResilienceMetrics reports no resilience layer")
	}

	alice := n.MustNode("user00")
	bob := n.MustNode("user01")
	g, err := alice.CreateGroup("friends", privacy.SchemeHybrid)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	if err := g.Add("user01"); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := alice.ShareGroup("friends", bob); err != nil {
		t.Fatalf("ShareGroup: %v", err)
	}
	if _, _, err := alice.Publish("friends", []byte("resilient hello")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got, _, err := bob.ReadPost("user00", 0); err != nil || string(got) != "resilient hello" {
		t.Fatalf("ReadPost: %v %q", err, got)
	}
	m, _ := n.ResilienceMetrics()
	if m.Ops == 0 {
		t.Fatal("node traffic bypassed the resilience decorator: zero ops recorded")
	}
}

func TestResiliencePublishReadSurvivesLoss(t *testing.T) {
	n := resilientNetwork(t, 12)
	alice := n.MustNode("user00")
	bob := n.MustNode("user01")
	g, _ := alice.CreateGroup("friends", privacy.SchemeHybrid)
	g.Add("user01")
	if err := alice.ShareGroup("friends", bob); err != nil {
		t.Fatalf("ShareGroup: %v", err)
	}
	n.Sim.SetLossRate(0.20)
	for i := 0; i < 10; i++ {
		if _, _, err := alice.Publish("friends", []byte(fmt.Sprintf("post %d", i))); err != nil {
			t.Fatalf("Publish %d under 20%% loss: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		got, _, err := bob.ReadPost("user00", uint64(i))
		if err != nil {
			t.Fatalf("ReadPost %d under 20%% loss: %v", i, err)
		}
		if want := fmt.Sprintf("post %d", i); string(got) != want {
			t.Fatalf("post %d: got %q", i, got)
		}
	}
	m, _ := n.ResilienceMetrics()
	if m.Retries == 0 && m.Hedges == 0 {
		t.Fatal("20% loss exercised neither retries nor hedges")
	}
}

func TestNetworkHealRestoresReplicasAfterChurn(t *testing.T) {
	n := resilientNetwork(t, 16)
	alice := n.MustNode("user00")
	bob := n.MustNode("user01")
	g, _ := alice.CreateGroup("friends", privacy.SchemeHybrid)
	g.Add("user01")
	if err := alice.ShareGroup("friends", bob); err != nil {
		t.Fatalf("ShareGroup: %v", err)
	}
	if _, _, err := alice.Publish("friends", []byte("survives churn")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Crash-restart two overlay nodes (losing their stored state; with
	// RF=3 at least one replica survives), then repair.
	for i := 4; i < 6; i++ {
		name := fmt.Sprintf("user%02d", i)
		if err := n.Sim.Crash(simnet.NodeID(name)); err != nil {
			t.Fatalf("Crash %s: %v", name, err)
		}
		if err := n.SetOnline(name, true); err != nil {
			t.Fatalf("restart %s: %v", name, err)
		}
	}
	report, err := n.Heal()
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if report.KeysScanned == 0 {
		t.Fatal("heal scanned no keys")
	}
	if got, _, err := bob.ReadPost("user00", 0); err != nil || string(got) != "survives churn" {
		t.Fatalf("ReadPost after heal: %v %q", err, got)
	}
}

func TestHealWithoutHealerErrors(t *testing.T) {
	n := smallNetwork(t, OverlayGossip)
	if _, err := n.Heal(); err == nil {
		t.Fatal("gossip overlay healed without a repair pass")
	}
	if _, ok := n.ResilienceMetrics(); ok {
		t.Fatal("bare network reports resilience metrics")
	}
}

func TestResilienceWrapsHybridOverlay(t *testing.T) {
	users := []string{"alice", "bob", "carol", "dave", "eve", "frank"}
	var friendships []Friendship
	for i := range users {
		friendships = append(friendships, Friendship{A: users[i], B: users[(i+1)%len(users)], Trust: 0.9})
	}
	rcfg := resilience.DefaultConfig(0)
	n, err := NewNetwork(Config{
		Seed:              5,
		Overlay:           OverlayHybrid,
		Users:             users,
		Friendships:       friendships,
		ReplicationFactor: 3,
		Resilience:        &rcfg,
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	rk, ok := n.KV.(*resilience.KV)
	if !ok {
		t.Fatalf("KV is %T, want *resilience.KV", n.KV)
	}
	if _, err := rk.Heal(); err != nil {
		t.Fatalf("hybrid overlay (DHT-backed) should heal: %v", err)
	}
	alice := n.MustNode("alice")
	bob := n.MustNode("bob")
	g, _ := alice.CreateGroup("friends", privacy.SchemeHybrid)
	g.Add("bob")
	if err := alice.ShareGroup("friends", bob); err != nil {
		t.Fatalf("ShareGroup: %v", err)
	}
	if _, _, err := alice.Publish("friends", []byte("hybrid post")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got, _, err := bob.ReadPost("alice", 0); err != nil || string(got) != "hybrid post" {
		t.Fatalf("ReadPost: %v %q", err, got)
	}
	if _, err := n.Heal(); err != nil && !errors.Is(err, resilience.ErrNoHealer) {
		t.Fatalf("Heal: %v", err)
	}
}

// TestReplayedPostIsReadAround: every node replays the last reply it sent
// for each RPC kind, so after a republish a replica serves the owner-signed
// record the owner has since superseded. The record check refuses it as
// corrupt and the resilient read takes the current post from a replica.
func TestReplayedPostIsReadAround(t *testing.T) {
	n := resilientNetwork(t, 12)
	for _, u := range n.Users() {
		if err := n.Sim.SetByzantine(simnet.NodeID(u), simnet.ByzantineConfig{Mode: simnet.ByzReplay, Rate: 1}); err != nil {
			t.Fatalf("SetByzantine %s: %v", u, err)
		}
	}
	alice := n.MustNode("user00")
	bob := n.MustNode("user01")
	g, err := alice.CreateGroup("friends", privacy.SchemeHybrid)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	for _, m := range []string{"user01", "user02"} {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := alice.ShareGroup("friends", bob); err != nil {
		t.Fatalf("ShareGroup: %v", err)
	}
	if _, _, err := alice.Publish("friends", []byte("current")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got, _, err := bob.ReadPost("user00", 0); err != nil || string(got) != "current" {
		t.Fatalf("first read: %q, %v", got, err)
	}
	if _, err := g.Remove("user02"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := alice.RepublishArchive("friends", []uint64{0}); err != nil {
		t.Fatalf("RepublishArchive: %v", err)
	}
	before, _ := n.ResilienceMetrics()
	if got, _, err := bob.ReadPost("user00", 0); err != nil || string(got) != "current" {
		t.Fatalf("read after the republish: %q, %v", got, err)
	}
	if m, _ := n.ResilienceMetrics(); m.CorruptReads <= before.CorruptReads {
		t.Fatalf("CorruptReads %d -> %d, want the replayed copy counted", before.CorruptReads, m.CorruptReads)
	}
}
