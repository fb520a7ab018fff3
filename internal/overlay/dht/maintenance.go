package dht

import (
	"fmt"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// This file implements the DHT's batched maintenance plane
// (overlay.BatchRepairKV / overlay.BatchDigestKV): direct per-replica
// multi-key fetch and store envelopes riding the same batch handlers as the
// data plane (batch.go), plus a multi-group digest RPC that verifies every
// scrub group a replica participates in with one message pair. It also
// exposes PlanReplicas, the network-free replica planning hook continuous
// schedulers (scrub.Sweeper) use to bound a pass's message cost before
// spending a single message.

var (
	_ overlay.BatchRepairKV = (*DHT)(nil)
	_ overlay.BatchDigestKV = (*DHT)(nil)
)

// kindDigestBatch asks a node for Merkle roots over several key groups at
// once. Like kindDigest it is exempt from data-plane admission gating:
// congestion must never masquerade as divergence.
const kindDigestBatch = "dht.digest_batch"

// digestBatchReq carries one key group per scrub group the replica
// participates in, all bound to the same pass nonce.
type digestBatchReq struct {
	Groups [][]string
	Nonce  uint64
}

// digestBatchResp carries one root pair per group. Each group's roots are
// corrupted on their own (byzantine.go), so a lying batch summary corrupts
// every group's digest and causes drill-downs across the board instead of
// being trusted (a flat concatenation would let a single bit flip hide in
// one group while the rest short-circuit as clean).
type digestBatchResp struct {
	Fresh [][]byte
	State [][]byte
}

// handleDigestBatch computes the replica-side multi-group digest —
// node-local, free of network cost beyond the one reply. The groups share
// one leaf slice sized for the largest, and every group's two roots are
// views of one array, so the reply allocates per batch, not per group.
func handleDigestBatch(n *node, req digestBatchReq) (simnet.Message, error) {
	resp := digestBatchResp{
		Fresh: make([][]byte, len(req.Groups)),
		State: make([][]byte, len(req.Groups)),
	}
	most := 0
	for _, keys := range req.Groups {
		most = max(most, len(keys))
	}
	leaves := make([][32]byte, 1+most)
	roots := make([]byte, 64*len(req.Groups))
	for i, keys := range req.Groups {
		r := roots[64*i : 64*i+64]
		localDigest(n, keys, req.Nonce, leaves, r)
		resp.Fresh[i], resp.State[i] = r[:32:32], r[32:64:64]
	}
	return simnet.Message{Kind: kindDigestBatch, Payload: resp, Size: batchEnvelopeOverhead + 64*len(req.Groups)}, nil
}

// FetchBatchFrom implements overlay.BatchRepairKV: one fetch_batch envelope
// to the named replica only, answered positionally. A key the replica does
// not hold carries overlay.ErrNotFound in its slot; an envelope-level
// failure (unreachable, corrupt reply) is the top-level error.
func (d *DHT) FetchBatchFrom(origin string, keys []string, replica string) ([]overlay.BatchResult, overlay.OpStats, error) {
	rn := d.view().names[simnet.NodeID(replica)]
	if rn == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	f := borrowFrame()
	defer returnFrame(f)
	// Copied, not adopted: the frame clears its own arrays on return.
	req := &f.fetchBatch
	req.Keys = append(req.Keys, keys...)
	reply, err := d.net.RPC(&f.tr, simnet.NodeID(origin), rn.name, req.message())
	if err != nil {
		return nil, f.tr, err
	}
	resp, ok := reply.Payload.(*fetchBatchResp)
	if !ok || resp == nil || len(resp.Found) != len(keys) || len(resp.Values) != len(keys) {
		return nil, f.tr, errBadFetchBatchReply
	}
	results := make([]overlay.BatchResult, len(keys))
	for i := range keys {
		if resp.Found[i] {
			results[i].Value = resp.Values[i]
		} else {
			results[i].Err = overlay.ErrNotFound
		}
	}
	return results, f.tr, nil
}

// StoreBatchTo implements overlay.BatchRepairKV: one store_batch envelope
// writing keys[i]=values[i] onto the named replica only, bypassing routing
// and placement — the coalesced form of StoreTo.
func (d *DHT) StoreBatchTo(origin string, keys []string, values [][]byte, replica string) ([]error, overlay.OpStats, error) {
	if len(keys) != len(values) {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: StoreBatchTo: %d keys but %d values", len(keys), len(values))
	}
	rn := d.view().names[simnet.NodeID(replica)]
	if rn == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	f := borrowFrame()
	defer returnFrame(f)
	// Copied, not adopted: the frame clears its own arrays on return. No
	// routing named these keys' ring ids, so each is hashed here.
	req := &f.storeBatch
	req.Keys = append(req.Keys, keys...)
	req.Values = append(req.Values, values...)
	for _, key := range keys {
		req.Tops = append(req.Tops, idTop(d.keyID(key)))
	}
	_, err := d.net.RPC(&f.tr, simnet.NodeID(origin), rn.name, req.message())
	if err != nil {
		return nil, f.tr, err
	}
	return make([]error, len(keys)), f.tr, nil
}

// DigestBatchFrom implements overlay.BatchDigestKV: one digest_batch
// envelope retrieving the Merkle roots of every key group from the named
// replica, all bound to nonce.
func (d *DHT) DigestBatchFrom(origin string, groups [][]string, nonce uint64, replica string) ([]overlay.Digest, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	rn := d.view().names[simnet.NodeID(replica)]
	if rn == nil {
		return nil, *tr, fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	size := batchEnvelopeOverhead + 8
	for _, keys := range groups {
		size += batchItemOverhead
		for _, k := range keys {
			size += len(k)
		}
	}
	reply, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindDigestBatch,
		Payload: digestBatchReq{Groups: groups, Nonce: nonce},
		Size:    size,
	})
	if err != nil {
		return nil, *tr, err
	}
	resp, ok := reply.Payload.(digestBatchResp)
	if !ok || len(resp.Fresh) != len(groups) || len(resp.State) != len(groups) {
		return nil, *tr, fmt.Errorf("dht: bad digest_batch reply")
	}
	out := make([]overlay.Digest, len(groups))
	for i := range groups {
		if len(resp.Fresh[i]) != 32 || len(resp.State[i]) != 32 {
			return nil, *tr, fmt.Errorf("dht: bad digest_batch reply")
		}
		copy(out[i].Fresh[:], resp.Fresh[i])
		copy(out[i].State[:], resp.State[i])
	}
	return out, *tr, nil
}

// PlanReplicas returns the replica candidate set for key from the DHT's own
// global ring view — the same list ReplicasFor resolves, computed without a
// routing walk and free of network cost (like Holds and LiveCopies).
// Continuous maintenance schedulers (scrub.Sweeper) use it to form scrub
// groups and bound their per-tick message budget before spending a single
// message. The set can drift from a routed ReplicasFor only while routing
// state is stale, in which case the scrub pass degrades to extra
// drill-downs, never to a false clean. Like ReplicasFor's, the slice may be
// shared and must not be written.
func (d *DHT) PlanReplicas(key string) []string {
	return d.replicaPlan(d.keyID(key))
}
