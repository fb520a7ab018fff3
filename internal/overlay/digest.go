package overlay

import (
	"encoding/binary"
	"unsafe"

	"godosn/internal/crypto/merkle"
)

// This file defines the Merkle anti-entropy contract between overlays and
// the integrity scrubber (internal/resilience/scrub): a replica summarizes
// its local copies of a key set as one Merkle root, so a scrubber can
// compare whole replica sets in O(1) reply bytes and fetch full values only
// for key sets whose digests diverge. Both sides must compute leaves
// identically, which is why the leaf formats live here, in the shared
// contract package.

// copyPresent and copyAbsent domain-separate a held copy from a missing one,
// so "node lost the key" and "node holds an empty value" digest differently.
const (
	copyPresent = "godosn/scrub/copy-v1\x00"
	copyAbsent  = "godosn/scrub/absent-v1\x00"
	// nonceDomain domain-separates the freshness nonce leaf that binds a
	// digest to one scrub pass.
	nonceDomain = "godosn/scrub/nonce-v1\x00"
)

// CopyLeaf hashes one replica's copy of key for digest comparison. present
// distinguishes a held (possibly empty) value from a missing key; the key is
// bound into the leaf so a value cannot stand in for another key's copy. The
// leaf's parts are hashed in place, with no buffer joining them.
func CopyLeaf(key string, value []byte, present bool) [32]byte {
	// A read-only view of the key's bytes: the hash only reads them.
	k := unsafe.Slice(unsafe.StringData(key), len(key))
	if !present {
		return merkle.LeafHash([]byte(copyAbsent), k)
	}
	return merkle.LeafHash([]byte(copyPresent), k, []byte{0}, value)
}

// NonceLeaf is the leaf that binds a digest to one scrub pass: the nonce-bound
// root (Digest.Fresh) is DigestOf this leaf followed by the copy leaves. The
// nonce forces a replica to commit per pass: a Byzantine node replaying an
// old-but-matching digest reply answers for a stale nonce, so its root
// diverges from the honest replicas' and the scrubber drills down within the
// same pass instead of one round late.
func NonceLeaf(nonce uint64) [32]byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], nonce)
	return merkle.LeafHash([]byte(nonceDomain), buf[:])
}

// DigestOf folds leaves, in caller-fixed key order, into one Merkle root.
// Order matters: both sides must walk the same sorted key list. It reads the
// slice in place, so a caller sizes it once and fills it: a replica puts the
// nonce leaf in slot 0 and its copy leaves after it, and folds the whole
// slice for Fresh and the slice from 1 for State.
func DigestOf(leaves [][32]byte) [32]byte { return merkle.RootOf(leaves) }

// RepairKV is implemented by overlays that can write a value directly onto
// one named replica, bypassing placement. The integrity scrubber uses it to
// push a verified canonical copy over a divergent or missing one.
type RepairKV interface {
	ReplicaKV
	// StoreTo writes key=value onto the named replica only.
	StoreTo(origin string, key string, value []byte, replica string) (OpStats, error)
}

// Digest is one replica's summary of its copies of a key set. Fresh is the
// nonce-bound root (DigestOf the NonceLeaf, then the copy leaves) — the
// root compared across replicas, so a reply recorded under an earlier nonce
// cannot be replayed as fresh. State is the nonce-free root (DigestOf) over the same copies: once Fresh
// equality has established that every replica answered this pass, State is
// a stable fingerprint of the agreed replica state, identical across passes
// over unchanged data.
type Digest struct {
	Fresh [32]byte
	State [32]byte
}

// DigestKV is implemented by overlays whose replicas can summarize their
// local copies of a key set as Merkle roots (CopyLeaf/NonceLeaf/DigestOf). Digest replies travel over the same faulty network as
// everything else: a corrupted or lying digest causes a drill-down to full
// value comparison, never a false "clean".
type DigestKV interface {
	ReplicaKV
	// DigestFrom asks one named replica for its Digest over its local
	// copies of keys, walked in the given order, bound to nonce.
	DigestFrom(origin string, keys []string, nonce uint64, replica string) (Digest, OpStats, error)
}

// BatchRepairKV is implemented by overlays whose maintenance plane can move
// many keys to or from one named replica in a single message pair. The
// scrubber and healer use it to fetch a whole scrub group as one batched
// column per replica and to coalesce repair pushes per destination — the
// maintenance-plane counterpart of BatchKV's data-plane batching. Neither
// call keeps keys or values past its return: the scrubber refills one list
// per envelope.
type BatchRepairKV interface {
	RepairKV
	// FetchBatchFrom reads keys from the named replica only, in one RPC.
	// The result slice aligns with keys: a key the replica does not hold
	// carries a not-found error in its slot, and one bad key never fails
	// its siblings. The top-level error reports envelope-level failure
	// (replica unreachable, reply corrupt) — per-key slots are then nil.
	FetchBatchFrom(origin string, keys []string, replica string) ([]BatchResult, OpStats, error)
	// StoreBatchTo writes keys[i]=values[i] onto the named replica only,
	// in one RPC. The error slice aligns with keys; the top-level error
	// reports envelope-level failure.
	StoreBatchTo(origin string, keys []string, values [][]byte, replica string) ([]error, OpStats, error)
}

// BatchDigestKV is implemented by overlays whose replicas can summarize many
// scrub groups in one message: one DigestBatchFrom verifies every group a
// replica participates in against that replica with a single request/reply
// pair instead of one DigestFrom per group. Replies travel over the same
// faulty network as everything else — a corrupted or replayed batch digest
// causes drill-downs, never a false "clean".
type BatchDigestKV interface {
	DigestKV
	// DigestBatchFrom asks one named replica for its Digest over each key
	// group, all bound to the same pass nonce. The result aligns with
	// groups.
	DigestBatchFrom(origin string, groups [][]string, nonce uint64, replica string) ([]Digest, OpStats, error)
}

// PlacementFilterable is implemented by overlays whose replica placement can
// exclude nodes vetoed by a health layer. The resilience layer wires its
// circuit breaker in here so quarantined (persistently corrupting) nodes
// stop receiving new copies; reads are unaffected (the breaker already
// skips them there).
type PlacementFilterable interface {
	// SetPlacementFilter installs the veto (nil restores unfiltered
	// placement). allow must be safe for concurrent use and cheap: it is
	// consulted on every placement decision.
	SetPlacementFilter(allow func(node string) bool)
}

// ReplicaRankable is implemented by overlays whose replica *selection*
// order can be steered by a health layer: ReplicasFor returns candidates in
// the ranker's order instead of canonical ring order. The resilience layer
// wires its load/health tracker in here so reads prefer lightly-loaded
// healthy replicas. Ranking reorders candidates only — it never adds or
// removes any, so correctness (which nodes hold the key) is untouched.
type ReplicaRankable interface {
	// SetReplicaRanker installs the ordering hook (nil restores canonical
	// order). rank must be safe for concurrent use, deterministic for a
	// given tracker state, and must return a permutation of its input; it
	// must not mutate the input slice.
	SetReplicaRanker(rank func(replicas []string) []string)
}
