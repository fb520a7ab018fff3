package simnet

import (
	"errors"
	"fmt"
	"testing"
)

// echoCounter registers a handler that counts invocations and echoes.
func echoCounter(t *testing.T, n *Network, id NodeID) *int {
	t.Helper()
	count := new(int)
	err := n.Register(id, HandlerFunc(func(tr *Trace, from NodeID, msg Message) (Message, error) {
		*count++
		return Message{Kind: msg.Kind, Size: 8}, nil
	}))
	if err != nil {
		t.Fatalf("Register(%s): %v", id, err)
	}
	return count
}

func TestSetOnlineUnknownNodeRejected(t *testing.T) {
	n := New(DefaultConfig(1))
	if err := n.SetOnline("ghost", false); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetOnline on unregistered node: got %v, want ErrUnknownNode", err)
	}
	// The rejected call must not leave the node pre-churned: registering it
	// afterwards yields an online node.
	echoCounter(t, n, "ghost")
	if !n.Online("ghost") {
		t.Fatal("node registered after a rejected SetOnline(false) starts offline")
	}
}

func TestSetPartitionUnknownNodeRejected(t *testing.T) {
	n := New(DefaultConfig(1))
	if err := n.SetPartition("ghost", 7); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("SetPartition on unregistered node: got %v, want ErrUnknownNode", err)
	}
	// Registering afterwards must land the node in the default group.
	echoCounter(t, n, "a")
	echoCounter(t, n, "ghost")
	if _, err := n.RPC(nil, "a", "ghost", Message{Kind: "ping", Size: 4}); err != nil {
		t.Fatalf("rejected SetPartition leaked state: %v", err)
	}
}

func TestReplyLossIsDistinctFromRequestLoss(t *testing.T) {
	// Under loss, a drop on the reply direction must surface as
	// ErrReplyLost — the handler has already executed — while a drop on
	// the request direction must not. Sweep seeds until both cases occur.
	sawReplyLost, sawRequestLost := false, false
	for seed := int64(0); seed < 200 && !(sawReplyLost && sawRequestLost); seed++ {
		n := New(Config{Seed: seed})
		n.SetLossRate(0.4)
		count := echoCounter(t, n, "b")
		echoCounter(t, n, "a")
		before := *count
		_, err := n.RPC(nil, "a", "b", Message{Kind: "ping", Size: 4})
		handled := *count > before
		switch {
		case err == nil:
		case errors.Is(err, ErrReplyLost):
			sawReplyLost = true
			if !handled {
				t.Fatal("ErrReplyLost but the handler never ran")
			}
			if !errors.Is(err, ErrDropped) {
				t.Fatalf("ErrReplyLost must wrap its delivery cause, got %v", err)
			}
		case errors.Is(err, ErrDropped):
			sawRequestLost = true
			if handled {
				t.Fatal("request-direction drop reported but the handler ran")
			}
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if !sawReplyLost || !sawRequestLost {
		t.Fatalf("seed sweep did not produce both cases (reply=%v request=%v)", sawReplyLost, sawRequestLost)
	}
}

func TestCrashFiresStateLossHook(t *testing.T) {
	n := New(DefaultConfig(3))
	echoCounter(t, n, "a")
	state := map[string]string{"k": "v"}
	if err := n.OnCrash("a", func() { state = map[string]string{} }); err != nil {
		t.Fatalf("OnCrash: %v", err)
	}
	if err := n.Crash("a"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if n.Online("a") {
		t.Fatal("crashed node still online")
	}
	if len(state) != 0 {
		t.Fatal("crash hook did not clear volatile state")
	}
	if err := n.SetOnline("a", true); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !n.Online("a") {
		t.Fatal("restarted node offline")
	}
	if err := n.Crash("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Crash on unregistered node: got %v, want ErrUnknownNode", err)
	}
}

func TestFaultScheduleDeterministicAndOnTarget(t *testing.T) {
	build := func() (*Network, *FaultSchedule, []NodeID) {
		n := New(DefaultConfig(5))
		names := make([]NodeID, 30)
		for i := range names {
			names[i] = NodeID(fmt.Sprintf("n%d", i))
			echoCounter(t, n, names[i])
		}
		s, err := NewFaultSchedule(n, names, ChurnConfig{Seed: 42, Uptime: 0.7})
		if err != nil {
			t.Fatalf("NewFaultSchedule: %v", err)
		}
		return n, s, names
	}
	n1, s1, _ := build()
	n2, s2, names := build()
	online := func(n *Network) int {
		c := 0
		for _, id := range names {
			if n.Online(id) {
				c++
			}
		}
		return c
	}
	onlineTicks, totalTicks := 0, 0
	for tick := 0; tick < 400; tick++ {
		t1 := s1.Tick()
		t2 := s2.Tick()
		if t1 != t2 || online(n1) != online(n2) {
			t.Fatalf("tick %d: schedules with equal seeds diverged (%d/%d vs %d/%d)",
				tick, t1, online(n1), t2, online(n2))
		}
		onlineTicks += online(n1)
		totalTicks += len(names)
	}
	frac := float64(onlineTicks) / float64(totalTicks)
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("observed uptime %.2f, want ≈0.7", frac)
	}
	s2.Restore()
	for _, id := range names {
		if !n2.Online(id) {
			t.Fatalf("Restore left %s offline", id)
		}
	}
}
