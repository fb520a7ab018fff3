package dht

import (
	"bytes"
	"reflect"
	"testing"

	"godosn/internal/overlay/simnet"
)

// TestEveryReplyWithAPayloadIsCorruptible drives each handler kind and
// requires every reply that carries a payload to be simnet.Corruptible, so a
// new reply type cannot silently turn a Byzantine node honest. Corrupt(nil)
// must hand back a copy, equal to the reply and never the handler's pointer;
// a mutation that ran must hand back a copy too, equal under the identity
// mutation and leaving the reply untouched when the copy is mutated.
func TestEveryReplyWithAPayloadIsCorruptible(t *testing.T) {
	d, _, names := buildDHT(t, 4, Config{ReplicationFactor: 1})
	n := d.view().names[names[1]]
	n.data.put("k", keyTop("k"), []byte("stored value"))
	handle := d.handlerFor(n)
	invert := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		for i := range c {
			c[i] ^= 0xFF
		}
		return c
	}
	for _, req := range []simnet.Message{
		{Kind: kindFindSuccessor, Payload: &findSuccessorReq{Key: n.id + 1}},
		{Kind: kindFindSuccessor, Payload: &findSuccessorReq{Key: n.id - 1}},
		{Kind: kindStore, Payload: &storeReq{Key: "k2", Top: keyTop("k2"), Value: []byte("v")}},
		{Kind: kindFetch, Payload: &fetchReq{Key: "k"}},
		{Kind: kindFetch, Payload: &fetchReq{Key: "absent"}},
		{Kind: kindDigest, Payload: digestReq{Keys: []string{"k", "absent"}, Nonce: 7}},
		{Kind: kindDigestBatch, Payload: digestBatchReq{Groups: [][]string{{"k"}, {"absent"}}, Nonce: 7}},
		{Kind: kindStoreBatch, Payload: &storeBatchReq{Keys: []string{"k3"}, Tops: []uint32{keyTop("k3")}, Values: [][]byte{[]byte("v")}}},
		{Kind: kindFetchBatch, Payload: &fetchBatchReq{Keys: []string{"k", "absent"}}},
	} {
		reply, err := handle(&simnet.Trace{}, names[0], req)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		if reply.Payload == nil {
			continue
		}
		c, ok := reply.Payload.(simnet.Corruptible)
		if !ok {
			t.Errorf("%s replies with a %T, which is not simnet.Corruptible: a Byzantine node would answer it honestly", req.Kind, reply.Payload)
			continue
		}
		own := func(p any) bool {
			v := reflect.ValueOf(p)
			return v.Kind() == reflect.Pointer && v.Pointer() == reflect.ValueOf(reply.Payload).Pointer()
		}
		snap, copied := c.Corrupt(nil)
		if copied || !reflect.DeepEqual(snap, reply.Payload) {
			t.Errorf("%s: the plain copy reported a lie (%v) or differs: %+v -> %+v", req.Kind, copied, reply.Payload, snap)
		}
		if own(snap) {
			t.Errorf("%s: Corrupt(nil) handed back the handler's own pointer", req.Kind)
		}
		same, ran := c.Corrupt(func(b []byte) []byte { return append([]byte(nil), b...) })
		if !reflect.DeepEqual(same, reply.Payload) {
			t.Errorf("%s: the identity mutation changed the reply: %+v -> %+v", req.Kind, reply.Payload, same)
		}
		if ran && own(same) {
			t.Errorf("%s: Corrupt ran the mutation over the handler's own pointer", req.Kind)
		}
		lie, lied := c.Corrupt(invert)
		if lied != ran || lied == reflect.DeepEqual(lie, reply.Payload) {
			t.Errorf("%s: Corrupt reported mut ran=%v, but the lie %+v vs honest %+v", req.Kind, lied, lie, reply.Payload)
		}
		if !reflect.DeepEqual(snap, reply.Payload) {
			t.Errorf("%s: corrupting a copy changed the handler's reply", req.Kind)
		}
	}
}

// TestByzantineBitFlipOnRoutingReplyAllocatesNothing: a routing reply has no
// bytes to lie through, so a bit-flipping responder delivers the honest reply
// itself, the pointer into the caller's frame, without copying it, and no lie
// is counted.
func TestByzantineBitFlipOnRoutingReplyAllocatesNothing(t *testing.T) {
	d, net, names := buildDHT(t, 16, Config{ReplicationFactor: 1})
	liar := d.view().names[names[3]]
	if err := net.SetByzantine(liar.name, simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	f := borrowFrame()
	defer returnFrame(f)
	f.find.Key = liar.id + 1
	req := simnet.Message{Kind: kindFindSuccessor, Payload: &f.find, Size: 16}
	rpc := func() {
		f.tr = simnet.Trace{}
		reply, err := net.RPC(&f.tr, names[0], liar.name, req)
		if err != nil {
			t.Fatalf("RPC: %v", err)
		}
		if got := reply.Payload.(*findSuccessorResp); got != &f.find.reply {
			t.Fatalf("reply %p is not the caller's slot %p", got, &f.find.reply)
		}
	}
	if got := testing.AllocsPerRun(50, rpc); got != 0 {
		t.Errorf("a routing reply through a bit-flipping node: %v allocs, want 0", got)
	}
	if got := net.CorruptedReplies(); got != 0 {
		t.Errorf("CorruptedReplies = %d, want 0: a routing reply cannot lie", got)
	}
}

// TestByzantineBitFlipOnPointerReplyCorruptsAPrivateCopy: a fetch reply
// points into the caller's pooled frame. A bit-flipping replica must still get
// its lie through to whoever reads reply.Payload, and the lie must live in a
// private copy: the frame's slot and the replica's store keep the honest bytes.
func TestByzantineBitFlipOnPointerReplyCorruptsAPrivateCopy(t *testing.T) {
	d, net, names := buildDHT(t, 12, Config{ReplicationFactor: 3})
	client := names[0]
	orig := []byte("the honest stored value")
	if _, err := d.Store(string(client), "k", orig); err != nil {
		t.Fatalf("Store: %v", err)
	}
	liar := replicaNames(d, "k")[0]
	if err := net.SetByzantine(liar, simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	f := borrowFrame()
	defer returnFrame(f)
	f.fetch.Key = "k"
	reply, err := net.RPC(&f.tr, client, liar, simnet.Message{Kind: kindFetch, Payload: &f.fetch, Size: 1})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	resp, ok := reply.Payload.(*fetchResp)
	if !ok || resp == nil || resp == &f.fetch.reply {
		t.Fatalf("reply payload %T (own slot: %v), want a private *fetchResp", reply.Payload, resp == &f.fetch.reply)
	}
	if !resp.Found || len(resp.Value) != len(orig) || bytes.Equal(resp.Value, orig) {
		t.Fatalf("rate-1 bit flip delivered %q", resp.Value)
	}
	if !bytes.Equal(f.fetch.reply.Value, orig) {
		t.Fatal("the lie was written into the caller's frame")
	}
	if stored, _ := d.StoredCopy(string(liar), "k"); !bytes.Equal(stored, orig) {
		t.Fatal("the lie was written into the replica's store")
	}
	if got := net.CorruptedReplies(); got != 1 {
		t.Fatalf("CorruptedReplies = %d, want 1", got)
	}
}

// TestByzantineReplayServesTheRecordedPointerReply: a routing walk sends one
// pooled request for every hop, and each reply points at that request's slot.
// By the time a reply is replayed the slot reads differently, so a replayer
// that kept the pointer would serve the slot's current value, find it equal to
// the honest reply, and never lie.
func TestByzantineReplayServesTheRecordedPointerReply(t *testing.T) {
	d, net, names := buildDHT(t, 16, Config{ReplicationFactor: 1})
	liar := d.view().names[names[3]]
	// Keys whose honest answers at the liar differ from one call to the next.
	honest := d.handlerFor(liar)
	var keys []uint64
	var answers []findSuccessorResp
	for i := uint(0); i < ringBits && len(keys) < 4; i++ {
		key := liar.id + uint64(1)<<i
		reply, err := honest(&simnet.Trace{}, names[0], simnet.Message{Kind: kindFindSuccessor, Payload: &findSuccessorReq{Key: key}})
		if err != nil {
			t.Fatalf("find_successor: %v", err)
		}
		ans := *reply.Payload.(*findSuccessorResp)
		if len(answers) == 0 || ans != answers[len(answers)-1] {
			keys, answers = append(keys, key), append(answers, ans)
		}
	}
	if len(keys) < 4 {
		t.Fatalf("found only %d distinct consecutive answers", len(keys))
	}
	if err := net.SetByzantine(liar.name, simnet.ByzantineConfig{Mode: simnet.ByzReplay, Rate: 1}); err != nil {
		t.Fatalf("SetByzantine: %v", err)
	}
	f := borrowFrame()
	defer returnFrame(f)
	req := simnet.Message{Kind: kindFindSuccessor, Payload: &f.find, Size: 16}
	for call, key := range keys {
		f.find.Key = key
		reply, err := net.RPC(&f.tr, names[0], liar.name, req)
		if err != nil {
			t.Fatalf("RPC: %v", err)
		}
		got, ok := reply.Payload.(*findSuccessorResp)
		if !ok || got == nil {
			t.Fatalf("reply payload %T, want a *findSuccessorResp", reply.Payload)
		}
		// The first call is honest (nothing recorded yet); every later one
		// serves the answer recorded on the call before it.
		want := answers[max(call-1, 0)]
		if *got != want {
			t.Fatalf("call %d served %+v, want %+v (slot now reads %+v)", call+1, *got, want, f.find.reply)
		}
		if call > 0 && got == &f.find.reply {
			t.Fatalf("call %d: the replay is the caller's own slot", call+1)
		}
	}
	if got := net.CorruptedReplies(); got != len(keys)-1 {
		t.Fatalf("CorruptedReplies = %d, want %d (every replay differed from the honest reply)", got, len(keys)-1)
	}
}
