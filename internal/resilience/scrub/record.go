// Package scrub is the data-integrity repair layer: checksummed storage
// records, and a background scrubber that walks replica sets, compares them
// through Merkle digests, verifies copies, repairs divergence from a
// verified-majority copy, and feeds corruption verdicts into the health
// tracker so persistently corrupting nodes are quarantined.
//
// The paper's Data Integrity pillar (Table I, Section IV) supplies passive
// verification primitives — signed posts, hash-chained timelines, Merkle
// history trees. This package is what *exercises* them against an
// adversarial substrate: simnet's Byzantine fault modes corrupt replies and
// stored state, and the scrubber plus the resilience layer's verified reads
// guarantee detect-or-fail (no corrupted payload ever surfaces silently)
// with repair and quarantine behind it. Experiment E19 measures the layer.
package scrub

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"godosn/internal/resilience"
)

// ErrRecord condemns a blob that is not a valid sealed record for its key:
// wrong framing, wrong key binding (a replayed record for another key), or
// a checksum mismatch (bit flips, truncation). It wraps
// resilience.ErrCorrupt, so resilience.Classify maps it — and anything
// wrapping it — onto FaultCorruption.
var ErrRecord = fmt.Errorf("%w: invalid sealed record", resilience.ErrCorrupt)

// recordMagic frames sealed records; the version is part of the checksum
// domain so format changes cannot alias.
var recordMagic = []byte("GDSNREC1")

// checksum binds key and payload: a valid record for key A cannot verify as
// key B's record, which is what defeats stale-value replay across keys.
func checksum(key string, payload []byte) [32]byte {
	h := sha256.New()
	h.Write(recordMagic)
	var klen [4]byte
	binary.BigEndian.PutUint32(klen[:], uint32(len(key)))
	h.Write(klen[:])
	h.Write([]byte(key))
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Seal wraps a payload as a self-verifying record for key:
// magic || checksum(key, payload) || payload.
func Seal(key string, payload []byte) []byte {
	sum := checksum(key, payload)
	out := make([]byte, 0, len(recordMagic)+32+len(payload))
	out = append(out, recordMagic...)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

// Open verifies a sealed record against its key and returns the payload as
// a view into record: it allocates nothing and leaves record unchanged, and
// the payload is the caller's exactly as far as the record is (writing
// through one changes the other).
// Any mismatch returns ErrRecord: detect-or-fail, no partial results. Open
// accepts both plain and keyed records: for a keyed record the MAC envelope
// is stripped and the inner payload returned — the outer checksum still
// covers the whole envelope, so accidental corruption is detected, but
// authenticity requires OpenKeyed with the owner's MAC key.
func Open(key string, record []byte) ([]byte, error) {
	payload, err := verifyOuter(key, record)
	if err != nil {
		return nil, err
	}
	if isKeyedEnvelope(payload) {
		payload = payload[len(keyedMagic)+macSize:]
	}
	return payload, nil
}

// verifyOuter verifies framing and checksum and returns the outer payload
// as a view into record — the shared half of every open and check.
func verifyOuter(key string, record []byte) ([]byte, error) {
	if len(record) < len(recordMagic)+32 || !bytes.Equal(record[:len(recordMagic)], recordMagic) {
		return nil, fmt.Errorf("%w: key %q: bad framing (%d bytes)", ErrRecord, key, len(record))
	}
	var sum [32]byte
	copy(sum[:], record[len(recordMagic):])
	// Capacity-capped: appending to a payload copies rather than writing
	// into whatever follows the record in its backing array.
	payload := record[len(recordMagic)+32 : len(record) : len(record)]
	if checksum(key, payload) != sum {
		return nil, fmt.Errorf("%w: key %q: checksum mismatch", ErrRecord, key)
	}
	return payload, nil
}

// Check verifies a sealed record without returning the payload — the
// resilience.VerifyFunc shape, pluggable straight into the KV decorator:
//
//	cfg.Verify = scrub.Check
//
// Like Open it accepts both plain and keyed records; it checks integrity
// (the keyless checksum) only. Deployments that hold the MAC key gate the
// stronger check in by configuring CheckKeyed instead.
func Check(key string, record []byte) error {
	_, err := verifyOuter(key, record)
	return err
}

// Keyed records. Seal's checksum is keyless — anyone who can rewrite a
// stored blob can tamper with the payload and re-seal it with a valid
// checksum. Timeline entries close that gap structurally (hash chain +
// signatures, per the paper's integrity pillar); for non-timeline records
// the keyed form closes it cryptographically: the sealed payload carries
// an inner envelope with an HMAC-SHA256 tag under a per-owner key, so a
// storage node that tampers and re-seals still fails OpenKeyed at every
// verifier holding the owner's MAC key. Plain Open/Check keep working on
// keyed records (outer checksum only) — verification strength is gated
// purely by which VerifyFunc a deployment configures.

// keyedMagic frames the inner MAC envelope; payloads must not begin with
// this prefix unless sealed with SealKeyed (it is part of the MAC domain,
// so format confusion cannot alias).
var keyedMagic = []byte("GDSNKEY1")

// macSize is the HMAC-SHA256 tag length.
const macSize = sha256.Size

// macSum binds owner key, record key, and payload, in the same domain
// shape as checksum so the two forms can never be confused.
func macSum(mackey []byte, key string, payload []byte) [macSize]byte {
	h := hmac.New(sha256.New, mackey)
	h.Write(keyedMagic)
	var klen [4]byte
	binary.BigEndian.PutUint32(klen[:], uint32(len(key)))
	h.Write(klen[:])
	h.Write([]byte(key))
	h.Write(payload)
	var out [macSize]byte
	h.Sum(out[:0])
	return out
}

// isKeyedEnvelope reports whether an outer payload carries the keyed
// envelope framing.
func isKeyedEnvelope(p []byte) bool {
	return len(p) >= len(keyedMagic)+macSize && bytes.Equal(p[:len(keyedMagic)], keyedMagic)
}

// OwnerKey derives a per-owner MAC key from a deployment master secret —
// HMAC-SHA256(master, domain || owner). Each owner identity gets an
// independent key, so one compromised owner key reveals nothing about any
// other's.
func OwnerKey(master []byte, owner string) []byte {
	h := hmac.New(sha256.New, master)
	h.Write([]byte("godosn/owner-mac-key\x00"))
	h.Write([]byte(owner))
	return h.Sum(nil)
}

// SealKeyed wraps a payload as a keyed self-verifying record:
// Seal(key, keyedMagic || HMAC(mackey; key, payload) || payload).
// The result is a valid sealed record (Open/Check accept it), with
// authenticity recoverable through OpenKeyed.
func SealKeyed(mackey []byte, key string, payload []byte) []byte {
	tag := macSum(mackey, key, payload)
	inner := make([]byte, 0, len(keyedMagic)+macSize+len(payload))
	inner = append(inner, keyedMagic...)
	inner = append(inner, tag[:]...)
	inner = append(inner, payload...)
	return Seal(key, inner)
}

// OpenKeyed verifies a keyed record's checksum and MAC and returns the
// payload as a view into record, under Open's ownership rule. A plain
// (unkeyed) record, a wrong MAC key, or a tampered-and-resealed envelope all
// return ErrRecord.
func OpenKeyed(mackey []byte, key string, record []byte) ([]byte, error) {
	outer, err := verifyOuter(key, record)
	if err != nil {
		return nil, err
	}
	if !isKeyedEnvelope(outer) {
		return nil, fmt.Errorf("%w: key %q: not a keyed record", ErrRecord, key)
	}
	tag := outer[len(keyedMagic) : len(keyedMagic)+macSize]
	payload := outer[len(keyedMagic)+macSize:]
	want := macSum(mackey, key, payload)
	if !hmac.Equal(tag, want[:]) {
		return nil, fmt.Errorf("%w: key %q: MAC mismatch", ErrRecord, key)
	}
	return payload, nil
}

// CheckKeyed returns a resilience.VerifyFunc that enforces the keyed form
// under mackey — the configuration gate for keyed integrity. Plug it into
// the resilience KV and scrub Config in place of Check:
//
//	cfg.Verify = scrub.CheckKeyed(ownerKey)
//
// Under it, a record that is unkeyed, keyed under another owner's key, or
// tampered and re-sealed is condemned exactly like a checksum mismatch.
func CheckKeyed(mackey []byte) resilience.VerifyFunc {
	return func(key string, record []byte) error {
		_, err := OpenKeyed(mackey, key, record)
		return err
	}
}
