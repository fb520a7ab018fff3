package scrub

import (
	"bytes"
	"errors"
	"testing"

	"godosn/internal/resilience"
	"godosn/internal/social/identity"
	"godosn/internal/social/integrity"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 4096)} {
		rec := Seal("key-1", payload)
		before := append([]byte(nil), rec...)
		got, err := Open("key-1", rec)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %q vs %q", got, payload)
		}
		// The ownership rule: Open returns a view into the caller's record,
		// leaves the record as it was, and the view re-seals to it.
		if !bytes.Equal(rec, before) {
			t.Fatal("Open changed the record")
		}
		if len(got) > 0 && &got[len(got)-1] != &rec[len(rec)-1] {
			t.Fatal("Open returned a copy, not a view into the record")
		}
		if cap(got) != len(got) {
			t.Fatalf("Open's view has capacity %d past its %d bytes: an append would write past the record", cap(got), len(got))
		}
		if !bytes.Equal(Seal("key-1", got), rec) {
			t.Fatal("Seal(key, Open(key, record)) differs from the record")
		}
		if err := Check("key-1", rec); err != nil {
			t.Fatalf("Check: %v", err)
		}
	}
}

func TestOpenDetectsEveryFaultShape(t *testing.T) {
	rec := Seal("key-1", []byte("the payload bytes"))
	cases := map[string][]byte{
		"bit flip in payload":  flip(rec, len(rec)-3),
		"bit flip in checksum": flip(rec, len(recordMagic)+5),
		"bit flip in magic":    flip(rec, 0),
		"truncated":            rec[:len(rec)-4],
		"truncated to framing": rec[:len(recordMagic)+31],
		"empty":                {},
		"garbage":              []byte("not a record at all, clearly"),
	}
	for name, bad := range cases {
		if err := Check("key-1", bad); !errors.Is(err, ErrRecord) {
			t.Fatalf("%s: got %v, want ErrRecord", name, err)
		}
	}
	// Cross-key replay: a perfectly valid record for another key must not
	// verify — the checksum binds the key.
	other := Seal("key-2", []byte("the payload bytes"))
	if err := Check("key-1", other); !errors.Is(err, ErrRecord) {
		t.Fatalf("cross-key replay: got %v, want ErrRecord", err)
	}
	// ErrRecord classifies as corruption for the retry/breaker machinery.
	if f := resilience.Classify(ErrRecord); f != resilience.FaultCorruption {
		t.Fatalf("Classify(ErrRecord) = %v, want FaultCorruption", f)
	}
}

func flip(rec []byte, i int) []byte {
	out := append([]byte(nil), rec...)
	out[i] ^= 0x10
	return out
}

func TestKeyedSealOpenRoundTrip(t *testing.T) {
	master := []byte("deployment master secret")
	alice := OwnerKey(master, "alice")
	bob := OwnerKey(master, "bob")
	if bytes.Equal(alice, bob) {
		t.Fatal("OwnerKey derived identical keys for distinct owners")
	}
	payload := []byte("a non-timeline record body")
	rec := SealKeyed(alice, "key-1", payload)

	// The keyed form is a valid sealed record: the keyless integrity layer
	// accepts it, and plain Open strips the envelope transparently.
	if err := Check("key-1", rec); err != nil {
		t.Fatalf("plain Check rejected a keyed record: %v", err)
	}
	if got, err := Open("key-1", rec); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("plain Open on keyed record: %v (%q)", err, got)
	}
	// The keyed verifier recovers the payload and the authenticity claim.
	got, err := OpenKeyed(alice, "key-1", rec)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("OpenKeyed: %v (%q)", err, got)
	}
	// Open's ownership rule holds for the keyed form: a view, not a copy.
	if &got[len(got)-1] != &rec[len(rec)-1] || !bytes.Equal(SealKeyed(alice, "key-1", got), rec) {
		t.Fatal("OpenKeyed's payload is not a view that re-seals to the record")
	}
	// Wrong owner key, unkeyed record, and cross-key replay all condemn.
	if _, err := OpenKeyed(bob, "key-1", rec); !errors.Is(err, ErrRecord) {
		t.Fatalf("wrong owner key: got %v, want ErrRecord", err)
	}
	if _, err := OpenKeyed(alice, "key-1", Seal("key-1", payload)); !errors.Is(err, ErrRecord) {
		t.Fatalf("unkeyed record passed OpenKeyed: %v", err)
	}
	if _, err := OpenKeyed(alice, "key-2", rec); !errors.Is(err, ErrRecord) {
		t.Fatalf("cross-key replay: got %v, want ErrRecord", err)
	}
}

func TestKeyedCheckCatchesTamperAndReseal(t *testing.T) {
	mackey := OwnerKey([]byte("master"), "alice")
	rec := SealKeyed(mackey, "key-1", []byte("original content"))
	verify := CheckKeyed(mackey)
	if err := verify("key-1", rec); err != nil {
		t.Fatalf("honest keyed record rejected: %v", err)
	}

	// The adversary tampers with the payload inside the envelope and
	// RE-SEALS the outer checksum — exactly the gap Seal leaves open. The
	// keyless check is fooled; only the MAC catches it.
	view, err := verifyOuter("key-1", rec)
	if err != nil {
		t.Fatalf("verifyOuter: %v", err)
	}
	outer := append([]byte(nil), view...)
	outer[len(outer)-1] ^= 0x01 // flip a payload byte, keep the old MAC
	forged := Seal("key-1", outer)
	if err := Check("key-1", forged); err != nil {
		t.Fatalf("re-sealed forgery failed the plain checksum (it should pass): %v", err)
	}
	if err := verify("key-1", forged); !errors.Is(err, ErrRecord) {
		t.Fatalf("tamper-and-reseal: got %v, want ErrRecord", err)
	}
	// A wholesale unkeyed replacement is likewise condemned under the gate.
	replaced := Seal("key-1", []byte("attacker's replacement"))
	if err := verify("key-1", replaced); !errors.Is(err, ErrRecord) {
		t.Fatalf("unkeyed replacement: got %v, want ErrRecord", err)
	}
	// And corruption anywhere in the keyed record stays detect-or-fail.
	if err := verify("key-1", flip(rec, len(rec)-2)); !errors.Is(err, ErrRecord) {
		t.Fatalf("bit flip: got %v, want ErrRecord", err)
	}
}

func TestTimelineCheckCatchesForgeryTheChecksumCannot(t *testing.T) {
	reg := identity.NewRegistry()
	alice, err := identity.NewUser("alice")
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	if err := reg.Register(alice); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tl := integrity.NewTimeline(alice)
	for i := 0; i < 3; i++ {
		if _, err := tl.Publish([]byte{byte('a' + i)}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	const key = "timeline/alice"
	rec, err := SealTimeline(key, tl.Entries())
	if err != nil {
		t.Fatalf("SealTimeline: %v", err)
	}
	check := TimelineCheck(reg, func(string) string { return "alice" })
	if err := check(key, rec); err != nil {
		t.Fatalf("honest timeline rejected: %v", err)
	}
	if got, err := OpenTimeline(key, rec); err != nil || len(got) != 3 {
		t.Fatalf("OpenTimeline: %v (%d entries)", err, len(got))
	}

	// The adversary tampers with an entry and RE-SEALS: the unkeyed record
	// checksum verifies, so Check alone is fooled — only the signature
	// chain catches it.
	forged := tl.Entries()
	forged[1].Payload = []byte("forged content")
	badRec, err := SealTimeline(key, forged)
	if err != nil {
		t.Fatalf("SealTimeline: %v", err)
	}
	if err := Check(key, badRec); err != nil {
		t.Fatalf("re-sealed forgery failed the plain checksum (it should pass): %v", err)
	}
	if err := check(key, badRec); !errors.Is(err, ErrRecord) {
		t.Fatalf("forged timeline: got %v, want ErrRecord", err)
	}
	// And a wrong-owner claim fails even with intact entries.
	mallory := TimelineCheck(reg, func(string) string { return "mallory" })
	if err := mallory(key, rec); !errors.Is(err, ErrRecord) {
		t.Fatalf("wrong owner: got %v, want ErrRecord", err)
	}
}

// TestCheckDoesNotCopy pins the verify-only path: every replica fetch runs
// it, and it needs the payload's checksum, not the payload.
func TestCheckDoesNotCopy(t *testing.T) {
	key := "wall/alice/a-key-longer-than-any-small-string-buffer/000042"
	rec := Seal(key, bytes.Repeat([]byte("p"), 4096))
	got := testing.AllocsPerRun(100, func() {
		if err := Check(key, rec); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("Check: %v allocs per record, budget 1", got)
	}
}

// FuzzOpen drives arbitrary records, keys, payloads and MAC keys through the
// record codec: nothing panics, Open succeeds exactly when Check does, both
// seal forms round-trip, a keyed record fails under any other MAC key, and
// flipping any one bit of a sealed record fails Check. A plain payload that
// begins with the keyed envelope framing opens to what follows the envelope:
// that is the documented ambiguity of Open, asserted here rather than
// skipped. Seeds: testdata/fuzz/FuzzOpen.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, record, payload, mackey []byte) {
		_, err := Open(key, record)
		if cerr := Check(key, record); (err == nil) != (cerr == nil) {
			t.Fatalf("Open err=%v but Check err=%v", err, cerr)
		}
		if err != nil && !errors.Is(err, ErrRecord) {
			t.Fatalf("Open error %v is not ErrRecord", err)
		}

		if len(payload) > 128 {
			payload = payload[:128] // bounds the bit-flip sweep below
		}
		want := payload
		if isKeyedEnvelope(payload) {
			want = payload[len(keyedMagic)+macSize:]
		}
		sealed := Seal(key, payload)
		if got, err := Open(key, sealed); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Open(Seal(%q)) = %q, %v; want %q", payload, got, err, want)
		}
		keyed := SealKeyed(mackey, key, payload)
		if got, err := OpenKeyed(mackey, key, keyed); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("OpenKeyed(SealKeyed(%q)) = %q, %v", payload, got, err)
		}
		other := []byte{1}
		if len(mackey) > 0 {
			other = append([]byte(nil), mackey...)
			other[0] ^= 0xFF
		}
		if _, err := OpenKeyed(other, key, keyed); !errors.Is(err, ErrRecord) {
			t.Fatalf("OpenKeyed under another MAC key: %v, want ErrRecord", err)
		}
		for _, rec := range [][]byte{sealed, keyed} {
			for bit := 0; bit < 8*len(rec); bit++ {
				rec[bit/8] ^= 1 << (bit % 8)
				if err := Check(key, rec); err == nil {
					t.Fatalf("Check accepted a record with bit %d flipped", bit)
				}
				rec[bit/8] ^= 1 << (bit % 8)
			}
		}
	})
}
