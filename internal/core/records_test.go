package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"

	"godosn/internal/crypto/hashchain"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/overlay/dht"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/social/integrity"
	"godosn/internal/social/privacy"
)

// innerGroup gives alice a symmetric group with bob and carol as members
// and publishes alice's post 0.
func innerGroup(t *testing.T, n *Network) privacy.Group {
	t.Helper()
	alice := n.MustNode("alice")
	g, err := alice.CreateGroup("inner", privacy.SchemeSymmetric)
	if err != nil {
		t.Fatalf("CreateGroup: %v", err)
	}
	for _, m := range []string{"bob", "carol"} {
		if err := g.Add(m); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := alice.ShareGroup("inner", n.MustNode(m)); err != nil {
			t.Fatalf("ShareGroup: %v", err)
		}
	}
	if _, _, err := alice.Publish("inner", []byte("genuine")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return g
}

// refused fails the test unless a read was refused as a forgery or as a
// corrupt record, returning no plaintext.
func refused(t *testing.T, what string, body []byte, err error) {
	t.Helper()
	if err == nil || body != nil {
		t.Fatalf("%s: read %q, %v; want a refusal", what, body, err)
	}
	if !errors.Is(err, integrity.ErrForgedOwner) && !errors.Is(err, resilience.ErrCorrupt) {
		t.Fatalf("%s: %v wraps neither ErrForgedOwner nor ErrCorrupt", what, err)
	}
}

// TestMemberCannotForgeOwnersPost is Table I's integrity of the data owner
// on the shipped path: bob, a member who can encrypt for alice's group,
// stores his own records at alice's post key, and carol refuses each.
func TestMemberCannotForgeOwnersPost(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	g := innerGroup(t, n)
	bob := n.MustNode("bob")
	key := postKey("alice", 0)

	env, err := g.Encrypt([]byte("forged by bob"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	wire, err := privacy.Marshal(env)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	payload := append(binary.BigEndian.AppendUint64(nil, 0), wire...)
	own, err := bob.Timeline.Publish(payload)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	claimed, err := hashchain.New("alice", bob.User.SigningKeyPair()).Append(payload)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	legacy, err := json.Marshal(struct {
		Author   string `json:"author"`
		Seq      uint64 `json:"seq"`
		Nano     int64  `json:"nano"`
		Envelope []byte `json:"envelope"`
	}{"alice", 0, 0, wire})
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	forgeries := map[string][]byte{
		"bob's own signed entry":             scrub.Seal(key, own.Marshal()),
		"entry naming alice, signed by bob":  scrub.Seal(key, claimed.Marshal()),
		"JSON record in the old post format": legacy,
		"JSON record, sealed under the key":  scrub.Seal(key, legacy),
	}
	for what, record := range forgeries {
		if _, err := n.KV.Store("bob", key, record); err != nil {
			t.Fatalf("%s: Store: %v", what, err)
		}
		body, _, err := n.MustNode("carol").ReadPost("alice", 0)
		refused(t, what, body, err)
	}
}

// TestPostReplayedUnderAnotherKeyIsRefused: alice's genuine post 0,
// re-sealed under post/alice/1, is a valid record with a valid signature,
// and still not post 1.
func TestPostReplayedUnderAnotherKeyIsRefused(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	innerGroup(t, n)
	alice := n.MustNode("alice")
	if _, _, err := alice.Publish("inner", []byte("second")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	record, _, err := n.KV.Lookup("bob", postKey("alice", 0))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	entry, err := scrub.Open(postKey("alice", 0), record)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := n.KV.Store("bob", postKey("alice", 1), scrub.Seal(postKey("alice", 1), entry)); err != nil {
		t.Fatalf("Store: %v", err)
	}
	body, _, err := n.MustNode("carol").ReadPost("alice", 1)
	refused(t, "post 0 replayed as post 1", body, err)
	if got, _, err := n.MustNode("carol").ReadPost("alice", 0); err != nil || string(got) != "genuine" {
		t.Fatalf("genuine post 0: %q, %v", got, err)
	}
}

// TestTamperedReplicaIsServedAroundOnResilientDHT: one replica rewrites
// the post's envelope and re-seals the record, so the checksum passes. The
// owner's signature fails, the resilient read counts the copy as corrupt,
// and an honest replica serves the post.
func TestTamperedReplicaIsServedAroundOnResilientDHT(t *testing.T) {
	n := resilientNetwork(t, 12)
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
	if _, _, err := alice.Publish("friends", []byte("untampered")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	key := postKey("user00", 0)
	d := n.KV.(*resilience.KV).Inner().(*dht.DHT)
	holder := d.PlanReplicas(key)[0]
	var resealed []byte
	ok := d.CorruptStored(holder, key, func(record []byte) []byte {
		payload, err := scrub.Open(key, record)
		if err != nil {
			t.Errorf("Open: %v", err)
			return record
		}
		payload[len(payload)-pubkey.SignatureSize-1] ^= 0x01 // last envelope byte
		resealed = scrub.Seal(key, payload)
		return resealed
	})
	if !ok {
		t.Fatalf("%s holds no copy of %s", holder, key)
	}
	if err := scrub.Check(key, resealed); err != nil {
		t.Fatalf("the re-sealed copy fails the checksum (it should pass): %v", err)
	}
	if _, err := n.openRecord(key, resealed); !errors.Is(err, integrity.ErrForgedOwner) {
		t.Fatalf("the re-sealed copy: %v, want ErrForgedOwner", err)
	}
	got, _, err := bob.ReadPost("user00", 0)
	if err != nil || string(got) != "untampered" {
		t.Fatalf("ReadPost: %q, %v", got, err)
	}
	if m, _ := n.ResilienceMetrics(); m.CorruptReads < 1 {
		t.Fatalf("CorruptReads = %d, want the tampered copy counted", m.CorruptReads)
	}
}

// TestSupersededRecordIsRefused: once alice re-stores post 0 as a later
// entry of her chain, the record sealed from the earlier entry is still
// checksummed, key-bound and owner-signed, and openRecord refuses it as
// superseded. A forgery under the same key is still reported as one.
func TestSupersededRecordIsRefused(t *testing.T) {
	n := smallNetwork(t, OverlayDHT)
	innerGroup(t, n)
	alice := n.MustNode("alice")
	key := postKey("alice", 0)
	old, _, err := n.KV.Lookup("bob", key)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if _, err := alice.RepublishArchive("inner", []uint64{0}); err != nil {
		t.Fatalf("RepublishArchive: %v", err)
	}
	current, _, err := n.KV.Lookup("bob", key)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if _, err := n.openRecord(key, current); err != nil {
		t.Fatalf("the republished record: %v", err)
	}
	_, err = n.openRecord(key, old)
	if !errors.Is(err, scrub.ErrRecord) || errors.Is(err, integrity.ErrForgedOwner) {
		t.Fatalf("the superseded record: %v, want ErrRecord and not ErrForgedOwner", err)
	}

	wire, err := scrub.Open(key, old)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e, err := hashchain.ParseEntry(wire)
	if err != nil {
		t.Fatalf("ParseEntry: %v", err)
	}
	forged, err := hashchain.New("alice", n.MustNode("bob").User.SigningKeyPair()).Append(e.Payload)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := n.openRecord(key, scrub.Seal(key, forged.Marshal())); !errors.Is(err, integrity.ErrForgedOwner) {
		t.Fatalf("an old entry forged by bob: %v, want ErrForgedOwner", err)
	}
}
