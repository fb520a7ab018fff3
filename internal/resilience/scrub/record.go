// Package scrub is the data-integrity repair layer: one checksummed record
// form (Seal/Open/Check), and a background scrubber that walks replica sets,
// compares them through Merkle digests, verifies copies, repairs divergence
// from a verified-majority copy, and feeds corruption verdicts into the
// health tracker so persistently corrupting nodes are quarantined.
//
// The paper's Data Integrity pillar (Table I, Section IV) supplies the
// signatures: a post's owner signs it as a hash-chained timeline entry, and
// core stores that entry as the payload of a sealed record. The checksum
// binds a record to its key and catches rot; the owner's signature, checked
// by whichever VerifyFunc the deployment configures, catches a holder that
// rewrites a payload and re-seals it. This package is what *exercises*
// those checks against an adversarial substrate: simnet's Byzantine fault
// modes corrupt replies and stored state, and the scrubber plus the
// resilience layer's verified reads guarantee detect-or-fail (no corrupted
// payload ever surfaces silently) with repair and quarantine behind it.
// Experiment E19 measures the layer.
package scrub

import (
	"bytes"
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
// through one changes the other). Any mismatch returns ErrRecord:
// detect-or-fail, no partial results. Every payload round-trips:
// Open(key, Seal(key, p)) returns p.
func Open(key string, record []byte) ([]byte, error) {
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
// The checksum is keyless: it catches bit rot, truncation and a record
// replayed under another key, but a holder that rewrites a payload can
// re-seal it. A record whose owner matters carries its own signature inside
// the payload and is checked by a VerifyFunc that opens, then verifies it
// (core's post records).
func Check(key string, record []byte) error {
	_, err := Open(key, record)
	return err
}
