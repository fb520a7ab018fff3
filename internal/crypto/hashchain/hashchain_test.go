package hashchain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"godosn/internal/crypto/pubkey"
)

func newChain(t *testing.T, author string) (*Chain, pubkey.VerificationKey) {
	t.Helper()
	kp, err := pubkey.NewSigningKeyPair()
	if err != nil {
		t.Fatalf("NewSigningKeyPair: %v", err)
	}
	return New(author, kp), kp.Verification()
}

func TestAppendVerify(t *testing.T) {
	c, vk := newChain(t, "alice")
	for i := 0; i < 20; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("post %d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if c.Len() != 20 {
		t.Fatalf("Len = %d", c.Len())
	}
	if idx, err := Verify(c.Entries(), vk); err != nil {
		t.Fatalf("Verify failed at %d: %v", idx, err)
	}
}

func TestVerifyEmptyChain(t *testing.T) {
	_, vk := newChain(t, "alice")
	if idx, err := Verify(nil, vk); err != nil || idx != -1 {
		t.Fatalf("empty chain: idx=%d err=%v", idx, err)
	}
}

func TestVerifyDetectsPayloadTamper(t *testing.T) {
	c, vk := newChain(t, "alice")
	for i := 0; i < 5; i++ {
		c.Append([]byte(fmt.Sprintf("post %d", i)))
	}
	entries := c.Entries()
	entries[2].Payload = []byte("FORGED")
	idx, err := Verify(entries, vk)
	if err == nil {
		t.Fatal("tampered payload verified")
	}
	if idx != 2 && idx != 3 {
		t.Fatalf("wrong failure index %d", idx)
	}
}

func TestVerifyDetectsReordering(t *testing.T) {
	c, vk := newChain(t, "alice")
	for i := 0; i < 5; i++ {
		c.Append([]byte(fmt.Sprintf("post %d", i)))
	}
	entries := c.Entries()
	entries[1], entries[2] = entries[2], entries[1]
	if _, err := Verify(entries, vk); err == nil {
		t.Fatal("reordered chain verified")
	}
}

func TestVerifyDetectsDeletion(t *testing.T) {
	c, vk := newChain(t, "alice")
	for i := 0; i < 5; i++ {
		c.Append([]byte(fmt.Sprintf("post %d", i)))
	}
	entries := c.Entries()
	// Drop entry 2: sequence numbers reveal the gap.
	trimmed := append(entries[:2:2], entries[3:]...)
	if _, err := Verify(trimmed, vk); err == nil {
		t.Fatal("chain with deleted entry verified")
	}
	// Truncation of the tail, however, is only detectable via anchors or
	// fork-consistency — prefix remains valid.
	if _, err := Verify(entries[:3], vk); err != nil {
		t.Fatalf("valid prefix rejected: %v", err)
	}
}

func TestVerifyDetectsWrongSigner(t *testing.T) {
	c, _ := newChain(t, "alice")
	_, otherVK := newChain(t, "mallory")
	c.Append([]byte("post"))
	if _, err := Verify(c.Entries(), otherVK); err == nil {
		t.Fatal("chain verified under wrong key")
	}
}

func TestVerifyDetectsAuthorMix(t *testing.T) {
	kp, _ := pubkey.NewSigningKeyPair()
	a := New("alice", kp)
	a.Append([]byte("a0"))
	b := New("bob", kp)
	b.Append([]byte("b0"))
	mixed := []*Entry{a.Entries()[0], b.Entries()[0]}
	mixed[1].Seq = 1
	if _, err := Verify(mixed, kp.Verification()); err == nil {
		t.Fatal("mixed-author chain verified")
	}
}

func TestAnchorsVerify(t *testing.T) {
	alice, _ := newChain(t, "alice")
	bob, _ := newChain(t, "bob")
	alice.Append([]byte("alice post 0"))
	anchor, err := AnchorTo(alice)
	if err != nil {
		t.Fatalf("AnchorTo: %v", err)
	}
	bob.Append([]byte("bob saw alice's post"), anchor)

	resolve := func(author string) []*Entry {
		switch author {
		case "alice":
			return alice.Entries()
		case "bob":
			return bob.Entries()
		}
		return nil
	}
	if err := VerifyAnchors(bob.Entries(), resolve); err != nil {
		t.Fatalf("VerifyAnchors: %v", err)
	}
}

func TestAnchorDetectsRewrite(t *testing.T) {
	alice, _ := newChain(t, "alice")
	bob, _ := newChain(t, "bob")
	alice.Append([]byte("original"))
	anchor, _ := AnchorTo(alice)
	bob.Append([]byte("anchored"), anchor)

	// Alice (or her storage) rewrites history after Bob anchored it.
	kp, _ := pubkey.NewSigningKeyPair()
	rewritten := New("alice", kp)
	rewritten.Append([]byte("REWRITTEN"))

	resolve := func(author string) []*Entry {
		if author == "alice" {
			return rewritten.Entries()
		}
		return bob.Entries()
	}
	if err := VerifyAnchors(bob.Entries(), resolve); err == nil {
		t.Fatal("anchor did not detect rewritten foreign entry")
	}
}

func TestAnchorUnknownTarget(t *testing.T) {
	bob, _ := newChain(t, "bob")
	bob.Append([]byte("x"), Anchor{Author: "ghost", Seq: 5})
	resolve := func(string) []*Entry { return nil }
	if err := VerifyAnchors(bob.Entries(), resolve); err == nil {
		t.Fatal("anchor to unknown entry verified")
	}
}

func TestAnchorToEmptyChain(t *testing.T) {
	empty, _ := newChain(t, "nobody")
	if _, err := AnchorTo(empty); err == nil {
		t.Fatal("anchored to empty chain")
	}
}

func TestHappensBeforeSameChain(t *testing.T) {
	alice, _ := newChain(t, "alice")
	for i := 0; i < 3; i++ {
		alice.Append([]byte(fmt.Sprintf("p%d", i)))
	}
	resolve := func(string) []*Entry { return alice.Entries() }
	if !HappensBefore("alice", 0, "alice", 2, resolve) {
		t.Fatal("0 !< 2 in same chain")
	}
	if HappensBefore("alice", 2, "alice", 0, resolve) {
		t.Fatal("2 < 0 in same chain")
	}
}

func TestHappensBeforeCrossChain(t *testing.T) {
	alice, _ := newChain(t, "alice")
	bob, _ := newChain(t, "bob")
	alice.Append([]byte("a0"))
	anchor, _ := AnchorTo(alice)
	bob.Append([]byte("b0"), anchor)
	bob.Append([]byte("b1"))

	resolve := func(author string) []*Entry {
		if author == "alice" {
			return alice.Entries()
		}
		return bob.Entries()
	}
	if !HappensBefore("alice", 0, "bob", 0, resolve) {
		t.Fatal("anchored entry not ordered before anchoring entry")
	}
	if !HappensBefore("alice", 0, "bob", 1, resolve) {
		t.Fatal("ordering not transitive through prev links")
	}
	if HappensBefore("bob", 1, "alice", 0, resolve) {
		t.Fatal("reverse ordering claimed")
	}
	// No anchor from alice to bob: unprovable.
	if HappensBefore("bob", 0, "alice", 0, resolve) {
		t.Fatal("unprovable ordering claimed")
	}
}

func TestEntriesCopyIsShallow(t *testing.T) {
	c, _ := newChain(t, "alice")
	c.Append([]byte("p"))
	e1 := c.Entries()
	e2 := c.Entries()
	e1[0] = nil
	if e2[0] == nil {
		t.Fatal("Entries slices share backing array")
	}
}

func sameEntry(a, b *Entry) bool {
	if a.Author != b.Author || a.Seq != b.Seq || a.PrevHash != b.PrevHash ||
		len(a.Anchors) != len(b.Anchors) || !bytes.Equal(a.Payload, b.Payload) ||
		!bytes.Equal(a.Signature, b.Signature) {
		return false
	}
	for i := range a.Anchors {
		if a.Anchors[i] != b.Anchors[i] {
			return false
		}
	}
	return true
}

func TestParseEntryRoundTripsAndVerifies(t *testing.T) {
	other, _ := newChain(t, "bob")
	other.Append([]byte("bob's post"))
	anchor, err := AnchorTo(other)
	if err != nil {
		t.Fatalf("AnchorTo: %v", err)
	}
	c, vk := newChain(t, "alice")
	c.Append([]byte("first"))
	e, _ := c.Append([]byte("second"), anchor)
	b := e.Marshal()
	got, err := ParseEntry(b)
	if err != nil {
		t.Fatalf("ParseEntry: %v", err)
	}
	if !sameEntry(got, e) {
		t.Fatalf("ParseEntry(Marshal(e)) = %+v, want %+v", got, e)
	}
	if &got.Payload[0] != &b[len(b)-pubkey.SignatureSize-len(got.Payload)] || cap(got.Payload) != len(got.Payload) {
		t.Fatal("Payload is not a capacity-capped view into the bytes")
	}
	if _, err := Verify([]*Entry{c.Entries()[0], got}, vk); err != nil {
		t.Fatalf("parsed entry does not verify in its chain: %v", err)
	}
	if err := pubkey.Verify(vk, b[:len(b)-pubkey.SignatureSize], got.Signature); err != nil {
		t.Fatalf("the bytes before the signature are not what was signed: %v", err)
	}
}

func TestParseEntryRefusesHostileBytes(t *testing.T) {
	c, _ := newChain(t, "alice")
	e, _ := c.Append([]byte("p"))
	b := e.Marshal()
	countAt := len(entryDomain) + len("alice") + 1 + 8 + 32
	hostile := append([]byte(nil), b...)
	binary.BigEndian.PutUint64(hostile[countAt:], 1<<62)
	cases := map[string][]byte{
		"empty":           nil,
		"short signature": b[:len(entryDomain)+pubkey.SignatureSize-1],
		"wrong domain":    append([]byte("godosn/hashchain/entry-v2\x00"), b[len(entryDomain):]...),
		"no author end":   append([]byte(entryDomain), bytes.Repeat([]byte{'a'}, pubkey.SignatureSize)...),
		"hostile count":   hostile,
	}
	for name, bad := range cases {
		if _, err := ParseEntry(bad); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

// flipFails reports whether flipping bit of enc makes it fail to parse or
// fail its signature check; enc is restored.
func flipFails(enc []byte, bit int, vk pubkey.VerificationKey) bool {
	enc[bit/8] ^= 1 << (bit % 8)
	defer func() { enc[bit/8] ^= 1 << (bit % 8) }()
	p, err := ParseEntry(enc)
	return err != nil || pubkey.Verify(vk, p.digest(), p.Signature) != nil
}

func TestEveryBitFlipFailsTheSignature(t *testing.T) {
	other, _ := newChain(t, "bob")
	other.Append([]byte("x"))
	anchor, _ := AnchorTo(other)
	c, vk := newChain(t, "alice")
	c.Append([]byte("first"))
	e, _ := c.Append([]byte("second"), anchor)
	enc := e.Marshal()
	for bit := 0; bit < 8*len(enc); bit++ {
		if !flipFails(enc, bit, vk) {
			t.Fatalf("signature check passed with bit %d flipped", bit)
		}
	}
}

// FuzzParseEntry holds the entry codec to three properties: hostile bytes
// never panic, parse(marshal(e)) equals e, and flipping any one bit of a
// marshaled entry fails its signature check. The fuzzer picks the bit (one
// signature check per input); TestEveryBitFlipFailsTheSignature sweeps them
// all on one entry.
func FuzzParseEntry(f *testing.F) {
	kp, err := pubkey.SigningKeyPairFromSeed(bytes.Repeat([]byte{7}, 32))
	if err != nil {
		f.Fatal(err)
	}
	vk := kp.Verification()
	seed := New("alice", kp)
	seed.Append([]byte("p"))
	f.Add(seed.Head().Marshal(), "alice", uint64(1), "bob", []byte("post"), uint(0))
	f.Add([]byte(entryDomain), "", uint64(0), "", []byte{}, uint(1000))
	f.Fuzz(func(t *testing.T, b []byte, author string, seq uint64, anchorAuthor string, payload []byte, bit uint) {
		if e, err := ParseEntry(b); err == nil && !bytes.Equal(e.Marshal(), b) {
			t.Fatalf("Marshal(ParseEntry(b)) differs from b")
		}

		// Names drop zero bytes, their terminator.
		author = strings.ReplaceAll(author, "\x00", "")
		anchorAuthor = strings.ReplaceAll(anchorAuthor, "\x00", "")
		e := &Entry{Author: author, Seq: seq, Payload: payload}
		e.PrevHash[0] = byte(seq)
		if anchorAuthor != "" {
			e.Anchors = []Anchor{{Author: anchorAuthor, Seq: seq >> 1, Hash: sha256.Sum256(payload)}}
		}
		e.Signature = kp.Sign(e.digest())
		enc := e.Marshal()
		got, err := ParseEntry(enc)
		if err != nil || !sameEntry(got, e) {
			t.Fatalf("ParseEntry(Marshal(%+v)) = %+v, %v", e, got, err)
		}
		if i := int(bit % uint(8*len(enc))); !flipFails(enc, i, vk) {
			t.Fatalf("signature check passed with bit %d flipped", i)
		}
	})
}

// TestEncodingAllocations pins the entry codec to one exact-size buffer:
// digest, Hash and Marshal allocate once each, with and without anchors,
// and the digest buffer has no spare capacity.
func TestEncodingAllocations(t *testing.T) {
	a, _ := newChain(t, "alice")
	b, _ := newChain(t, "bob")
	if _, err := b.Append([]byte("bob's post")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	anchor, err := AnchorTo(b)
	if err != nil {
		t.Fatalf("AnchorTo: %v", err)
	}
	payload := bytes.Repeat([]byte("p"), 300)
	if _, err := a.Append(payload); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for _, anchors := range [][]Anchor{nil, {anchor}} {
		e, err := a.Append(payload, anchors...)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if d := e.digest(); cap(d) != len(d) {
			t.Errorf("%d anchors: digest has len %d, cap %d", len(anchors), len(d), cap(d))
		}
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"digest", func() { _ = e.digest() }},
			{"Hash", func() { _ = e.Hash() }},
			{"Marshal", func() { _ = e.Marshal() }},
		} {
			if got := testing.AllocsPerRun(100, c.f); got != 1 {
				t.Errorf("%d anchors: %s allocates %v, want 1", len(anchors), c.name, got)
			}
		}
	}
}
