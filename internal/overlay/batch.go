package overlay

// This file defines the batch contract between overlays and the layers
// above them. Per-key operations pay a full routing pass and one request
// envelope per key; at millions of users that fan-out dominates every user
// action (LibreSocial and DECENT both identify per-object DHT round-trips
// as the dominant cost of a P2P OSN). BatchKV amortizes it: keys destined
// for the same replica set share one routing pass and one request envelope,
// so the message cost of a feed read scales with the number of replica
// groups touched, not the number of keys.

// BatchResult is one key's outcome within a GetBatch. Exactly one of Value
// and Err is meaningful: Err nil means Value holds the bytes read (which may
// be empty), Err non-nil explains why this key — and only this key — failed.
type BatchResult struct {
	// Value is the bytes read for the key (nil on error).
	Value []byte
	// Err is the per-key failure: ErrNotFound for a clean miss, a delivery
	// or overload fault otherwise. Per-key errors never abort the batch.
	Err error
}

// BatchKV is implemented by overlays that can serve multi-key operations
// with amortized routing and shared request envelopes. Semantics match a
// loop over Store/Lookup key by key — same values, same per-key error
// taxonomy — but the cost model differs: routing passes are shared between
// keys resolving to the same replica set, and each contacted replica
// receives one envelope covering all of its keys.
//
// Both methods return per-key outcomes positionally aligned with the input
// and a single OpStats for the whole batch. The top-level error reports
// whole-batch failures only (malformed arguments, unknown origin); per-key
// faults — an unreachable replica group, a missing key — are isolated to
// their slots.
type BatchKV interface {
	KV
	// PutBatch stores values[i] under keys[i], originating at node origin.
	// The returned slice holds one error (or nil) per key and belongs to the
	// caller, who may write through it: the overlay keeps no reference.
	PutBatch(origin string, keys []string, values [][]byte) ([]error, OpStats, error)
	// GetBatch resolves every key, originating at node origin.
	GetBatch(origin string, keys []string) ([]BatchResult, OpStats, error)
}
