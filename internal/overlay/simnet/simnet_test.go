package simnet

import (
	"errors"
	"testing"
	"time"
)

func echoHandler() HandlerFunc {
	return func(tr *Trace, from NodeID, msg Message) (Message, error) {
		return Message{Kind: msg.Kind, Payload: msg.Payload, Size: msg.Size}, nil
	}
}

func TestRPCDelivers(t *testing.T) {
	n := New(DefaultConfig(1))
	if err := n.Register("a", echoHandler()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := n.Register("b", echoHandler()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tr := &Trace{}
	reply, err := n.RPC(tr, "a", "b", Message{Kind: "ping", Payload: 42, Size: 10})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	if reply.Payload.(int) != 42 {
		t.Fatalf("reply payload = %v", reply.Payload)
	}
	if tr.Hops != 1 {
		t.Fatalf("Hops = %d, want 1", tr.Hops)
	}
	if tr.Messages != 2 {
		t.Fatalf("Messages = %d, want 2 (request+reply)", tr.Messages)
	}
	if tr.Bytes != 20 {
		t.Fatalf("Bytes = %d, want 20", tr.Bytes)
	}
	if tr.Latency < 2*10*time.Millisecond {
		t.Fatalf("Latency = %v, want >= 20ms", tr.Latency)
	}
}

func TestDuplicateRegister(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("a", echoHandler())
	if err := n.Register("a", echoHandler()); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("got %v, want ErrDuplicateNode", err)
	}
}

func TestUnknownNode(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("a", echoHandler())
	if _, err := n.RPC(nil, "a", "ghost", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("got %v, want ErrUnknownNode", err)
	}
}

func TestOfflineNode(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("a", echoHandler())
	n.Register("b", echoHandler())
	n.SetOnline("b", false)
	if _, err := n.RPC(nil, "a", "b", Message{}); !errors.Is(err, ErrNodeOffline) {
		t.Fatalf("got %v, want ErrNodeOffline", err)
	}
	if n.Online("b") {
		t.Fatal("offline node reported online")
	}
	n.SetOnline("b", true)
	if _, err := n.RPC(nil, "a", "b", Message{}); err != nil {
		t.Fatalf("RPC after revival: %v", err)
	}
}

func TestOfflineSender(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("a", echoHandler())
	n.Register("b", echoHandler())
	n.SetOnline("a", false)
	if _, err := n.RPC(nil, "a", "b", Message{}); !errors.Is(err, ErrNodeOffline) {
		t.Fatalf("got %v, want ErrNodeOffline", err)
	}
}

func TestPartition(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("a", echoHandler())
	n.Register("b", echoHandler())
	n.SetPartition("b", 1)
	if _, err := n.RPC(nil, "a", "b", Message{}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("got %v, want ErrPartitioned", err)
	}
	n.SetPartition("a", 1)
	if _, err := n.RPC(nil, "a", "b", Message{}); err != nil {
		t.Fatalf("same-partition RPC failed: %v", err)
	}
}

func TestLossRate(t *testing.T) {
	n := New(Config{Seed: 7})
	n.SetLossRate(0.5)
	n.Register("a", echoHandler())
	n.Register("b", echoHandler())
	drops := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		if _, err := n.RPC(nil, "a", "b", Message{}); err != nil {
			if !errors.Is(err, ErrDropped) {
				t.Fatalf("unexpected error: %v", err)
			}
			drops++
		}
	}
	// Each RPC has two chances to drop: expected failure rate 1-(1-p)^2 = .75
	if drops < trials/2 || drops == trials {
		t.Fatalf("drop count %d/%d implausible for 50%% loss", drops, trials)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int, Trace) {
		n := New(Config{Seed: 42, BaseLatency: time.Millisecond, JitterLatency: 10 * time.Millisecond})
		n.SetLossRate(0.3)
		n.Register("a", echoHandler())
		n.Register("b", echoHandler())
		fails := 0
		for i := 0; i < 100; i++ {
			if _, err := n.RPC(nil, "a", "b", Message{Size: 1}); err != nil {
				fails++
			}
		}
		return fails, n.Totals()
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 || t1 != t2 {
		t.Fatalf("simulation not deterministic: %d/%+v vs %d/%+v", f1, t1, f2, t2)
	}
}

func TestNestedRPCAccumulatesTrace(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("c", echoHandler())
	n.Register("b", HandlerFunc(func(tr *Trace, from NodeID, msg Message) (Message, error) {
		// b forwards to c.
		return n.RPC(tr, "b", "c", msg)
	}))
	n.Register("a", echoHandler())
	tr := &Trace{}
	if _, err := n.RPC(tr, "a", "b", Message{Kind: "fwd", Size: 5}); err != nil {
		t.Fatalf("RPC: %v", err)
	}
	if tr.Hops != 2 {
		t.Fatalf("Hops = %d, want 2", tr.Hops)
	}
	if tr.Messages != 4 {
		t.Fatalf("Messages = %d, want 4", tr.Messages)
	}
}

func TestCast(t *testing.T) {
	n := New(DefaultConfig(1))
	got := 0
	n.Register("a", echoHandler())
	n.Register("b", HandlerFunc(func(tr *Trace, from NodeID, msg Message) (Message, error) {
		got++
		return Message{}, nil
	}))
	tr := &Trace{}
	if err := n.Cast(tr, "a", "b", Message{Kind: "notify", Size: 3}); err != nil {
		t.Fatalf("Cast: %v", err)
	}
	if got != 1 {
		t.Fatal("cast not delivered")
	}
	if tr.Messages != 1 {
		t.Fatalf("Messages = %d, want 1 (no reply)", tr.Messages)
	}
}

func TestTotalsAndReset(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("a", echoHandler())
	n.Register("b", echoHandler())
	n.RPC(nil, "a", "b", Message{Size: 7})
	tot := n.Totals()
	if tot.Messages != 2 || tot.Bytes != 14 {
		t.Fatalf("Totals = %+v", tot)
	}
	if tot.Hops != 1 {
		t.Fatalf("Hops = %d", tot.Hops)
	}
	n.ResetTotals()
	if n.Totals() != (Trace{}) {
		t.Fatal("reset did not clear totals")
	}
}

func TestTraceAdd(t *testing.T) {
	a := Trace{Hops: 1, Messages: 2, Bytes: 3, Latency: time.Second}
	b := Trace{Hops: 10, Messages: 20, Bytes: 30, Latency: time.Minute}
	a.Add(&b)
	if a.Hops != 11 || a.Messages != 22 || a.Bytes != 33 || a.Latency != time.Minute+time.Second {
		t.Fatalf("Add: %+v", a)
	}
}

func TestRandStableForLabel(t *testing.T) {
	n := New(DefaultConfig(5))
	a := n.Rand("x").Int63()
	b := n.Rand("x").Int63()
	c := n.Rand("y").Int63()
	if a != b {
		t.Fatal("same label gave different streams")
	}
	if a == c {
		t.Fatal("different labels gave same stream")
	}
}

func TestNodesListing(t *testing.T) {
	n := New(DefaultConfig(1))
	n.Register("a", echoHandler())
	n.Register("b", echoHandler())
	if got := len(n.Nodes()); got != 2 {
		t.Fatalf("Nodes len = %d", got)
	}
}
