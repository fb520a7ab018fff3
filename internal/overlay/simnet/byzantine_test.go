package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// blobResp is a reply payload with a corruptible byte field, mirroring the
// shape of a DHT fetch reply.
type blobResp struct {
	Found bool
	Value []byte
}

// blobHandler serves a fixed value; state captures the handler's own slice
// so tests can prove corruption never mutates it.
func blobHandler(state []byte) HandlerFunc {
	return func(tr *Trace, from NodeID, msg Message) (Message, error) {
		return Message{Kind: msg.Kind, Payload: blobResp{Found: true, Value: state}, Size: len(state)}, nil
	}
}

func askBlob(t *testing.T, n *Network, from, to NodeID) blobResp {
	t.Helper()
	reply, err := n.RPC(nil, from, to, Message{Kind: "fetch", Size: 1})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	resp, ok := reply.Payload.(blobResp)
	if !ok {
		t.Fatalf("reply payload %T", reply.Payload)
	}
	return resp
}

func TestByzantineBitFlipCorruptsReplyNotHandlerState(t *testing.T) {
	n := New(DefaultConfig(1))
	state := []byte("the honest stored value")
	orig := append([]byte(nil), state...)
	n.Register("a", echoHandler())
	n.Register("b", blobHandler(state))
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	resp := askBlob(t, n, "a", "b")
	if bytes.Equal(resp.Value, orig) {
		t.Fatal("rate-1 bit flip left the reply intact")
	}
	if len(resp.Value) != len(orig) {
		t.Fatalf("bit flip changed length %d -> %d", len(orig), len(resp.Value))
	}
	diff := 0
	for i := range orig {
		if resp.Value[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit flip changed %d bytes, want exactly 1", diff)
	}
	// The corruption must happen on a copy: the handler's own state — the
	// node's "disk" — stays pristine.
	if !bytes.Equal(state, orig) {
		t.Fatal("corrupting the reply mutated the handler's stored state")
	}
	if n.CorruptedReplies() != 1 {
		t.Fatalf("CorruptedReplies = %d, want 1", n.CorruptedReplies())
	}
}

func TestByzantineTruncateShortensReply(t *testing.T) {
	n := New(DefaultConfig(2))
	state := []byte("0123456789abcdef")
	n.Register("a", echoHandler())
	n.Register("b", blobHandler(state))
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzTruncate, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	resp := askBlob(t, n, "a", "b")
	if len(resp.Value) >= len(state) {
		t.Fatalf("truncate kept %d bytes of %d", len(resp.Value), len(state))
	}
	if !bytes.HasPrefix(state, resp.Value) {
		t.Fatalf("truncation %q is not a prefix of %q", resp.Value, state)
	}
}

func TestByzantineReplayServesStaleReply(t *testing.T) {
	n := New(DefaultConfig(3))
	// The handler serves its live state; a replayer answers with the reply
	// it recorded on the previous call of the same kind — one step stale.
	state := []byte("version-1")
	n.Register("a", echoHandler())
	n.Register("b", blobHandler(state))
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzReplay, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	first := askBlob(t, n, "a", "b")
	if string(first.Value) != "version-1" {
		t.Fatalf("first reply %q, want honest version-1 (nothing recorded yet)", first.Value)
	}
	// The state advances; the replay must serve the bytes recorded at call
	// one — proving the cache deep-copied them rather than aliasing the
	// handler's slice, which now reads differently.
	copy(state, []byte("version-2"))
	second := askBlob(t, n, "a", "b")
	if string(second.Value) != "version-1" {
		t.Fatalf("second reply %q, want replayed version-1", second.Value)
	}
	if n.CorruptedReplies() != 1 {
		t.Fatalf("CorruptedReplies = %d, want 1 (only the differing replay counts)", n.CorruptedReplies())
	}
	// One step stale, not pinned forever: the next replay serves what was
	// recorded on the second call — which now matches the live value, so it
	// is indistinguishable from honesty and not counted as corruption.
	third := askBlob(t, n, "a", "b")
	if string(third.Value) != "version-2" {
		t.Fatalf("third reply %q, want version-2 (recorded on the previous call)", third.Value)
	}
	if n.CorruptedReplies() != 1 {
		t.Fatalf("CorruptedReplies = %d, want still 1 (identical replays are not corruption)", n.CorruptedReplies())
	}
}

// slotReq mirrors a DHT single-key request: the handler answers into the
// request's own slot and replies with a pointer to it, and the caller sends
// the same request again for its next message.
type slotReq struct {
	reply blobResp
	hop   hopResp
}

// hopResp mirrors a routing reply: nothing in it is corruptible.
type hopResp struct{ Next uint64 }

func TestByzantineBitFlipOnPointerReplyCorruptsAPrivateCopy(t *testing.T) {
	n := New(DefaultConfig(1))
	state := []byte("the honest stored value")
	orig := append([]byte(nil), state...)
	n.Register("a", echoHandler())
	n.Register("b", HandlerFunc(func(tr *Trace, from NodeID, msg Message) (Message, error) {
		req := msg.Payload.(*slotReq)
		req.reply = blobResp{Found: true, Value: state}
		return Message{Kind: msg.Kind, Payload: &req.reply, Size: len(state)}, nil
	}))
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	req := &slotReq{}
	reply, err := n.RPC(nil, "a", "b", Message{Kind: "fetch", Payload: req, Size: 1})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	got, ok := reply.Payload.(*blobResp)
	if !ok || got == nil {
		t.Fatalf("reply payload %T, want a *blobResp", reply.Payload)
	}
	if got == &req.reply {
		t.Fatal("the corrupted reply is the caller's own slot")
	}
	if !got.Found || len(got.Value) != len(orig) || bytes.Equal(got.Value, orig) {
		t.Fatalf("rate-1 bit flip delivered %+v", got)
	}
	if !bytes.Equal(req.reply.Value, orig) || !bytes.Equal(state, orig) {
		t.Fatal("the lie reached the caller's slot or the handler's state")
	}
	if n.CorruptedReplies() != 1 {
		t.Fatalf("CorruptedReplies = %d, want 1", n.CorruptedReplies())
	}
}

func TestByzantineReplayServesTheRecordedPointerReply(t *testing.T) {
	n := New(DefaultConfig(3))
	var hop uint64
	n.Register("a", echoHandler())
	n.Register("b", HandlerFunc(func(tr *Trace, from NodeID, msg Message) (Message, error) {
		req := msg.Payload.(*slotReq)
		hop++
		req.hop = hopResp{Next: hop}
		return Message{Kind: msg.Kind, Payload: &req.hop, Size: 8}, nil
	}))
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzReplay, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	// One request for the whole walk, as the DHT sends it: by the time a
	// reply is replayed the slot it was recorded from reads differently. A
	// replayer that kept the pointer would serve the slot's current value,
	// find it equal to the honest reply, and never lie.
	req := &slotReq{}
	for call, want := range []uint64{1, 1, 2, 3} {
		reply, err := n.RPC(nil, "a", "b", Message{Kind: "route", Payload: req, Size: 8})
		if err != nil {
			t.Fatalf("RPC: %v", err)
		}
		got, ok := reply.Payload.(*hopResp)
		if !ok || got == nil {
			t.Fatalf("reply payload %T, want a *hopResp", reply.Payload)
		}
		if got.Next != want {
			t.Fatalf("call %d served Next=%d, want %d (slot now reads %d)", call+1, got.Next, want, req.hop.Next)
		}
		if call > 0 && got == &req.hop {
			t.Fatalf("call %d: the replay is the caller's own slot", call+1)
		}
	}
	if n.CorruptedReplies() != 3 {
		t.Fatalf("CorruptedReplies = %d, want 3 (every replay differed from the honest reply)", n.CorruptedReplies())
	}
}

func TestMutatePayloadPassesOddPointersThrough(t *testing.T) {
	flips := 0
	flip := func(b []byte) []byte { flips++; return b }
	keys := []string{"k"}
	for _, payload := range []any{(*blobResp)(nil), &keys, new(int)} {
		out, visited := mutatePayload(Message{Kind: "k", Payload: payload}, flip)
		if visited || out.Payload != payload {
			t.Errorf("%T: visited=%v payload %v, want it handed back untouched", payload, visited, out.Payload)
		}
	}
	if flips != 0 {
		t.Fatalf("mutator ran %d times on payloads with nothing to corrupt", flips)
	}
}

func TestByzantineEquivocatePinsLiesToCallers(t *testing.T) {
	n := New(DefaultConfig(4))
	state := []byte("consistent answer")
	n.Register("b", blobHandler(state))
	const callers = 24
	ids := make([]NodeID, callers)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("c%d", i))
		n.Register(ids[i], echoHandler())
	}
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzEquivocate, Rate: 0.5}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	lied, honest := 0, 0
	for _, id := range ids {
		first := askBlob(t, n, id, "b")
		if bytes.Equal(first.Value, state) {
			honest++
		} else {
			lied++
		}
		// Equivocation is per-caller deterministic: repeats see the same
		// behaviour, bit flip included.
		again := askBlob(t, n, id, "b")
		if !bytes.Equal(first.Value, again.Value) {
			t.Fatalf("caller %s saw two different answers: %q then %q", id, first.Value, again.Value)
		}
	}
	if lied == 0 || honest == 0 {
		t.Fatalf("equivocation at rate 0.5 split %d lied / %d honest; want both non-zero", lied, honest)
	}
}

func TestByzantineDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]string, int) {
		n := New(DefaultConfig(42))
		n.Register("a", echoHandler())
		n.Register("b", blobHandler([]byte("deterministic payload bytes")))
		if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzBitFlip, Rate: 0.5, Seed: 7}); err != nil {
			t.Fatalf("SetByzantine: %v", err)
		}
		var replies []string
		for i := 0; i < 32; i++ {
			replies = append(replies, string(askBlob(t, n, "a", "b").Value))
		}
		return replies, n.CorruptedReplies()
	}
	r1, c1 := run()
	r2, c2 := run()
	if c1 != c2 {
		t.Fatalf("corruption counts diverged: %d vs %d", c1, c2)
	}
	if c1 == 0 || c1 == 32 {
		t.Fatalf("rate 0.5 corrupted %d/32; seeded stream looks degenerate", c1)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("reply %d diverged across identically seeded runs", i)
		}
	}
}

func TestByzantineLeavesRequestsAndPayloadFreeRepliesAlone(t *testing.T) {
	n := New(DefaultConfig(5))
	var got []byte
	n.Register("byz", echoHandler())
	n.Register("honest", HandlerFunc(func(tr *Trace, from NodeID, msg Message) (Message, error) {
		// Record what arrived: requests must never be corrupted, even when
		// the *sender* is Byzantine (responder model).
		got = append([]byte(nil), msg.Payload.(blobResp).Value...)
		return Message{Kind: msg.Kind, Payload: "plain ack"}, nil
	}))
	if err := n.SetByzantine("byz", ByzantineConfig{Mode: ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	sent := []byte("request payload")
	reply, err := n.RPC(nil, "byz", "honest", Message{Kind: "put", Payload: blobResp{Value: sent}, Size: len(sent)})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	if !bytes.Equal(got, sent) {
		t.Fatalf("request corrupted in flight: sent %q, handler saw %q", sent, got)
	}
	if reply.Payload.(string) != "plain ack" {
		t.Fatalf("reply %v", reply.Payload)
	}
	// A Byzantine responder whose reply has no byte payload corrupts nothing.
	n.Register("caller", echoHandler())
	if _, err := n.RPC(nil, "caller", "byz", Message{Kind: "ping", Payload: 7}); err != nil {
		t.Fatalf("RPC: %v", err)
	}
	if n.CorruptedReplies() != 0 {
		t.Fatalf("CorruptedReplies = %d, want 0 (no corruptible payloads)", n.CorruptedReplies())
	}
}

func TestSetByzantineValidation(t *testing.T) {
	n := New(DefaultConfig(6))
	if err := n.SetByzantine("ghost", ByzantineConfig{Mode: ByzBitFlip, Rate: 1}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: got %v, want ErrUnknownNode", err)
	}
	n.Register("a", echoHandler())
	n.Register("b", blobHandler([]byte("value")))
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	if n.ByzantineMode("b") != ByzBitFlip {
		t.Fatalf("mode = %v", n.ByzantineMode("b"))
	}
	// ByzNone clears; replies are honest again.
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzNone}); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if n.ByzantineMode("b") != ByzNone {
		t.Fatalf("mode after clear = %v", n.ByzantineMode("b"))
	}
	if resp := askBlob(t, n, "a", "b"); string(resp.Value) != "value" {
		t.Fatalf("cleared node still corrupts: %q", resp.Value)
	}
}
