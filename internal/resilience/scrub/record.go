// Package scrub is the data-integrity repair layer: one checksummed record
// form (Seal/SealVersion, Open/Check), and a background scrubber that walks
// replica sets, compares them through Merkle digests, verifies copies,
// repairs divergence from the elected canonical copy, and feeds corruption
// verdicts into the health tracker so persistently corrupting nodes are
// quarantined.
//
// A record may carry a version inside its checksum domain. The election
// has one freshness rule: the highest verified version wins, and majority,
// then smallest leaf hash, decides only among copies of that version. A
// verified copy of an older version is a missed write, repaired like a
// missing copy; it judges no node. A version is only as strong as the
// unkeyed checksum that covers it: a holder that re-seals can forge one,
// as it can forge a payload.
//
// The paper's Data Integrity pillar (Table I, Section IV) supplies the
// signatures: a post's owner signs it as a hash-chained timeline entry, and
// core stores that entry as the payload of a sealed record. The checksum
// binds a record to its key and catches rot; the owner's signature, checked
// by whichever VerifyFunc the reading deployment configures, catches a
// holder that rewrites a payload and re-seals it. This package is what
// *exercises* those checks against an adversarial substrate: simnet's
// Byzantine fault modes corrupt replies and stored state, and the scrubber
// plus the resilience layer's verified reads guarantee detect-or-fail (no
// corrupted payload ever surfaces silently) with repair and quarantine
// behind it. Experiment E19 measures the layer.
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

// The two record magics. The magic, and after GDSNREC2 the version, are
// part of the checksum domain, so the forms cannot alias: a version-0
// record is always GDSNREC1, and a GDSNREC2 record carries a version of at
// least 1.
var (
	recordMagic  = []byte("GDSNREC1")
	versionMagic = []byte("GDSNREC2")
)

// versionLen is the size of a GDSNREC2 record's big-endian version.
const versionLen = 8

// checksum binds the record's head (its magic and version), key and
// payload: a valid record for key A cannot verify as key B's record, which
// is what defeats stale-value replay across keys, and a copy cannot claim
// another version than the one it was sealed at.
func checksum(head []byte, key string, payload []byte) [32]byte {
	h := sha256.New()
	h.Write(head)
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
// GDSNREC1 || checksum(key, payload) || payload. It is the version-0
// record, byte for byte SealVersion(key, 0, payload).
func Seal(key string, payload []byte) []byte { return seal(key, 0, payload) }

// SealVersion seals a payload at a version. Version 0 is Seal's record; a
// later version is GDSNREC2 || version || checksum || payload, the version
// 8 bytes big-endian inside the checksum domain. When the scrubber's
// election sees copies of several versions, the highest verified one wins
// and an older copy is a missed write, repaired without condemning its
// holder.
func SealVersion(key string, version uint64, payload []byte) []byte {
	return seal(key, version, payload)
}

func seal(key string, version uint64, payload []byte) []byte {
	n := len(recordMagic)
	if version > 0 {
		n += versionLen
	}
	out := make([]byte, n+sha256.Size, n+sha256.Size+len(payload))
	if version == 0 {
		copy(out, recordMagic)
	} else {
		copy(out, versionMagic)
		binary.BigEndian.PutUint64(out[len(versionMagic):], version)
	}
	sum := checksum(out[:n], key, payload)
	copy(out[n:], sum[:])
	return append(out, payload...)
}

// Open verifies a sealed record against its key and returns the payload as
// a view into record: it allocates nothing and leaves record unchanged, and
// the payload is the caller's exactly as far as the record is (writing
// through one changes the other). Any mismatch returns ErrRecord:
// detect-or-fail, no partial results. Every payload round-trips:
// Open(key, SealVersion(key, v, p)) returns p.
func Open(key string, record []byte) ([]byte, error) {
	payload, _, err := parse(key, record)
	return payload, err
}

// Check verifies a sealed record without returning the payload — the
// resilience.VerifyFunc shape, pluggable straight into the KV decorator:
//
//	cfg.Verify = scrub.Check
//
// The checksum is keyless: it catches bit rot, truncation and a record
// replayed under another key, but a holder that rewrites a payload or a
// version can re-seal it. A record whose owner matters carries its own
// signature inside the payload and is checked by a VerifyFunc that opens,
// then verifies it (core's post records).
func Check(key string, record []byte) error {
	_, _, err := parse(key, record)
	return err
}

// parse is Open's and Check's form of the one record check: it verifies
// record against key and returns its payload (a capacity-capped view into
// record) and its version, or an ErrRecord naming the fault.
func parse(key string, record []byte) (payload []byte, version uint64, err error) {
	payload, version, fault := readRecord(key, record)
	if fault != "" {
		return nil, 0, &recordError{unwrapper: recordWrap, key: key, fault: fault, size: len(record)}
	}
	return payload, version, nil
}

// The faults readRecord reports, as recordError words them: a format whose
// only verb may be %[3]d, the record's length.
var (
	faultFraming     = "bad framing (%[3]d bytes)"
	faultZeroVersion = "version 0 under " + string(versionMagic)
	faultChecksum    = "checksum mismatch"
)

// recordError is the ErrRecord parse returns: one value, formatted only when
// read. It embeds recordWrap, a wrapper of ErrRecord, for its Unwrap, so
// errors.Is finds ErrRecord, and through it resilience.ErrCorrupt.
type recordError struct {
	unwrapper
	key, fault string
	size       int
}

type unwrapper interface{ Unwrap() error }

var recordWrap = fmt.Errorf("%w", ErrRecord).(unwrapper)

// Error reads as fmt.Errorf("%w: key %q: <fault>", ErrRecord, key) would;
// the explicit index lets a fault that does not report the record's length
// leave it unused.
func (e *recordError) Error() string {
	return fmt.Sprintf("%v: key %[2]q: "+e.fault, ErrRecord, e.key, e.size)
}

// readRecord is the one record check behind parse and the scrubber's
// election, in a form that allocates nothing: it verifies record against
// key and returns its payload (a capacity-capped view into record) and its
// version, or the fault that refuses it ("" when there is none).
func readRecord(key string, record []byte) (payload []byte, version uint64, fault string) {
	n := len(recordMagic)
	switch {
	case len(record) >= n+sha256.Size && bytes.Equal(record[:n], recordMagic):
	case len(record) >= n+versionLen+sha256.Size && bytes.Equal(record[:n], versionMagic):
		version = binary.BigEndian.Uint64(record[n:])
		n += versionLen
		if version == 0 {
			return nil, 0, faultZeroVersion
		}
	default:
		return nil, 0, faultFraming
	}
	var sum [32]byte
	copy(sum[:], record[n:])
	// Capacity-capped: appending to a payload copies rather than writing
	// into whatever follows the record in its backing array.
	payload = record[n+sha256.Size : len(record) : len(record)]
	if checksum(record[:n], key, payload) != sum {
		return nil, 0, faultChecksum
	}
	return payload, version, ""
}
