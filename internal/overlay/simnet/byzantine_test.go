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

// Corrupt implements Corruptible over Value.
func (r blobResp) Corrupt(mut func([]byte) []byte) (any, bool) {
	switch {
	case len(r.Value) == 0:
		return r, false
	case mut == nil:
		r.Value = bytes.Clone(r.Value)
		return r, false
	}
	r.Value = mut(r.Value)
	return r, true
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

// opaqueResp carries bytes but does not implement Corruptible, so no mode
// may touch it.
type opaqueResp struct{ Value []byte }

func TestByzantineLeavesNonCorruptiblePayloadsAlone(t *testing.T) {
	for _, mode := range []ByzMode{ByzBitFlip, ByzTruncate, ByzReplay, ByzEquivocate} {
		n := New(DefaultConfig(1))
		calls := 0
		n.Register("a", echoHandler())
		n.Register("b", HandlerFunc(func(tr *Trace, from NodeID, msg Message) (Message, error) {
			// A different answer each call, so a replay would show.
			calls++
			return Message{Kind: msg.Kind, Payload: &opaqueResp{Value: []byte(fmt.Sprintf("answer %d", calls))}, Size: 8}, nil
		}))
		if err := n.SetByzantine("b", ByzantineConfig{Mode: mode, Rate: 1}); err != nil {
			t.Fatalf("SetByzantine: %v", err)
		}
		for call := 1; call <= 3; call++ {
			reply, err := n.RPC(nil, "a", "b", Message{Kind: "fetch", Size: 1})
			if err != nil {
				t.Fatalf("%v: RPC: %v", mode, err)
			}
			if got := reply.Payload.(*opaqueResp); string(got.Value) != fmt.Sprintf("answer %d", call) {
				t.Fatalf("%v: call %d served %q", mode, call, got.Value)
			}
		}
		if n.CorruptedReplies() != 0 {
			t.Fatalf("%v: CorruptedReplies = %d, want 0", mode, n.CorruptedReplies())
		}
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
	if resp := askBlob(t, n, "a", "b"); string(resp.Value) == "value" {
		t.Fatal("bit-flip node at rate 1 served an honest reply")
	}
	// ByzNone clears; replies are honest again.
	if err := n.SetByzantine("b", ByzantineConfig{Mode: ByzNone}); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if resp := askBlob(t, n, "a", "b"); string(resp.Value) != "value" {
		t.Fatalf("cleared node still corrupts: %q", resp.Value)
	}
}
