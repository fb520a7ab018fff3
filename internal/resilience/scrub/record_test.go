package scrub

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"godosn/internal/resilience"
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

// TestOpenRoundTripsEveryPayload pins that Open has one record form: a
// payload that looks like framing of any kind comes back whole.
func TestOpenRoundTripsEveryPayload(t *testing.T) {
	p := append([]byte("GDSNKEY1"), bytes.Repeat([]byte{0xAA}, 32)...)
	p = append(p, "tail"...)
	if got, err := Open("k", Seal("k", p)); err != nil || !bytes.Equal(got, p) {
		t.Fatalf("Open(Seal(%q)) = %q, %v", p, got, err)
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

// TestSealBytesFrozen pins the version-0 record byte for byte: Seal's
// output is what the benchmark harness seals, and SealVersion at version 0
// must be the same record.
func TestSealBytesFrozen(t *testing.T) {
	const golden = "4744534e52454331b276419d7297a182dbffa157c4e3ec109478d3b573dae079cc77482531bf68b776"
	if got := hex.EncodeToString(Seal("k", []byte("v"))); got != golden {
		t.Fatalf("Seal(\"k\", \"v\") = %s, want %s", got, golden)
	}
	if !bytes.Equal(SealVersion("k", 0, []byte("v")), Seal("k", []byte("v"))) {
		t.Fatal("SealVersion at version 0 differs from Seal")
	}
}

// TestSealVersionRoundTrip: a versioned record opens to its payload and
// version, every header fault is refused, and version 0 has one form only.
func TestSealVersionRoundTrip(t *testing.T) {
	const version = 0x0102030405060708
	rec := SealVersion("key-1", version, []byte("payload"))
	if !bytes.HasPrefix(rec, versionMagic) {
		t.Fatalf("versioned record starts %q, want %q", rec[:len(versionMagic)], versionMagic)
	}
	payload, v, err := parse("key-1", rec)
	if err != nil || v != version || string(payload) != "payload" {
		t.Fatalf("parse = %q, %#x, %v", payload, v, err)
	}
	if got, err := Open("key-1", rec); err != nil || string(got) != "payload" {
		t.Fatalf("Open = %q, %v", got, err)
	}
	// A version-0 record under the second magic, correctly checksummed, is
	// still refused: Seal's form is the only version-0 record.
	zero := append([]byte(nil), versionMagic...)
	zero = append(zero, make([]byte, versionLen)...)
	sum := checksum(zero, "key-1", []byte("payload"))
	zero = append(append(zero, sum[:]...), "payload"...)
	cases := map[string][]byte{
		"version byte flipped":   flip(rec, len(versionMagic)+versionLen-1),
		"cut inside the version": rec[:len(versionMagic)+3],
		"cut inside the sum":     rec[:len(versionMagic)+versionLen+31],
		"version-1 magic":        append(append([]byte(nil), recordMagic...), rec[len(versionMagic):]...),
		"version 0 under REC2":   zero,
		"another key":            SealVersion("key-2", version, []byte("payload")),
	}
	for name, bad := range cases {
		if err := Check("key-1", bad); !errors.Is(err, ErrRecord) {
			t.Fatalf("%s: got %v, want ErrRecord", name, err)
		}
	}
}

// FuzzOpen drives arbitrary records, keys, payloads and versions through
// the record codec: nothing panics, Open succeeds exactly when Check does,
// every payload and version round-trips, flipping any one bit of a sealed
// record fails Check, and so does swapping its magic for the other form's.
// Seeds: testdata/fuzz/FuzzOpen.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, record, payload []byte, version uint64) {
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
		sealed := SealVersion(key, version, payload)
		if got, err := Open(key, sealed); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Open(SealVersion(%d, %q)) = %q, %v", version, payload, got, err)
		}
		if got, v, err := parse(key, sealed); err != nil || v != version || !bytes.Equal(got, payload) {
			t.Fatalf("parse(SealVersion(%d, %q)) = %q, %d, %v", version, payload, got, v, err)
		}
		for bit := 0; bit < 8*len(sealed); bit++ {
			sealed[bit/8] ^= 1 << (bit % 8)
			if err := Check(key, sealed); err == nil {
				t.Fatalf("Check accepted a record with bit %d flipped", bit)
			}
			sealed[bit/8] ^= 1 << (bit % 8)
		}
		swapped := append([]byte(nil), sealed...)
		if version == 0 {
			copy(swapped, versionMagic)
		} else {
			copy(swapped, recordMagic)
		}
		if err := Check(key, swapped); err == nil {
			t.Fatalf("Check accepted a version-%d record under the other magic", version)
		}
	})
}
