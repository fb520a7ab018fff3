package dht

import (
	"fmt"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// This file implements the DHT's integrity-repair surface: direct
// per-replica writes (overlay.RepairKV) and Merkle digests of local copies
// (overlay.DigestKV) for the anti-entropy scrubber, placement filtering
// (overlay.PlacementFilterable) so quarantined nodes stop receiving new
// copies, and seeded chaos hooks for injecting stored-state bit rot.

var (
	_ overlay.RepairKV            = (*DHT)(nil)
	_ overlay.DigestKV            = (*DHT)(nil)
	_ overlay.PlacementFilterable = (*DHT)(nil)
)

// kindDigest asks a node for the Merkle root over its copies of a key set.
const kindDigest = "dht.digest"

// digestReq carries the key set and the scrubber's per-pass freshness
// nonce; the responder must bind the nonce into its root, so a replayed
// reply (recorded under an older nonce) cannot pass as fresh.
type digestReq struct {
	Keys  []string
	Nonce uint64
}

// digestResp carries the nonce-bound root (Fresh) and the nonce-free one
// (State) of overlay.Digest. Both are corruptible (byzantine.go), so a lying
// summary makes the scrubber drill down to full value comparison instead of
// being trusted.
type digestResp struct {
	Fresh []byte
	State []byte
}

// StoreTo implements overlay.RepairKV: write key=value onto one named
// replica only, bypassing routing and placement.
func (d *DHT) StoreTo(origin, key string, value []byte, replica string) (overlay.OpStats, error) {
	rn := d.view().names[simnet.NodeID(replica)]
	if rn == nil {
		return overlay.OpStats{}, fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	f := borrowFrame()
	defer returnFrame(f)
	f.store = storeReq{Key: key, Top: idTop(d.keyID(key)), Value: value}
	_, err := d.net.RPC(&f.tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindStore,
		Payload: &f.store,
		Size:    len(key) + len(value),
	})
	return f.tr, err
}

// DigestFrom implements overlay.DigestKV: one RPC retrieving the Merkle
// roots (nonce-bound and plain) over the named replica's local copies of
// keys, in the given order.
func (d *DHT) DigestFrom(origin string, keys []string, nonce uint64, replica string) (overlay.Digest, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	rn := d.view().names[simnet.NodeID(replica)]
	if rn == nil {
		return overlay.Digest{}, *tr, fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	size := 8
	for _, k := range keys {
		size += len(k)
	}
	reply, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindDigest,
		Payload: digestReq{Keys: append([]string(nil), keys...), Nonce: nonce},
		Size:    size,
	})
	if err != nil {
		return overlay.Digest{}, *tr, err
	}
	resp, ok := reply.Payload.(digestResp)
	if !ok || len(resp.Fresh) != 32 || len(resp.State) != 32 {
		return overlay.Digest{}, *tr, fmt.Errorf("dht: bad digest reply")
	}
	var dg overlay.Digest
	copy(dg.Fresh[:], resp.Fresh)
	copy(dg.State[:], resp.State)
	return dg, *tr, nil
}

// localDigest computes a node's digests over its copies of keys —
// node-local handler logic, free of network cost — into roots[:32] (Fresh)
// and roots[32:64] (State). leaves, at least 1+len(keys) long, holds the
// nonce leaf and then the copy leaves, and both roots fold it in place.
func localDigest(n *node, keys []string, nonce uint64, leaves [][32]byte, roots []byte) {
	leaves = leaves[:1+len(keys)]
	leaves[0] = overlay.NonceLeaf(nonce)
	n.mu.Lock()
	for i, key := range keys {
		v, ok := n.data.get(key)
		leaves[1+i] = overlay.CopyLeaf(key, v, ok)
	}
	n.mu.Unlock()
	fresh, state := overlay.DigestOf(leaves), overlay.DigestOf(leaves[1:])
	copy(roots[:32], fresh[:])
	copy(roots[32:64], state[:])
}

// digestReply is the digest reply for keys: both roots in one 64-byte array.
func digestReply(n *node, keys []string, nonce uint64) digestResp {
	roots := make([]byte, 64)
	localDigest(n, keys, nonce, make([][32]byte, 1+len(keys)), roots)
	return digestResp{Fresh: roots[:32:32], State: roots[32:64:64]}
}

// SetPlacementFilter implements overlay.PlacementFilterable: allow vetoes
// nodes from future Store placement and from Heal's targets (nil restores
// canonical successor placement). Reads and direct repairs are unaffected.
func (d *DHT) SetPlacementFilter(allow func(node string) bool) {
	d.mu.Lock()
	v := *d.view()
	v.allowPlace = allow
	d.ring.Store(&v)
	d.mu.Unlock()
	d.bumpRoutes() // placement changed under memoized routes
}

// Holds reports whether the named node currently holds a local copy of key
// — test and experiment introspection, free of network cost.
func (d *DHT) Holds(name, key string) bool {
	n := d.view().names[simnet.NodeID(name)]
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.data.has(key)
}

// StoredCopy returns a copy of the named node's stored bytes for key —
// test and audit introspection (e.g. a scenario's final integrity audit),
// free of network cost. The second result reports whether the node holds
// the key at all.
func (d *DHT) StoredCopy(name, key string) ([]byte, bool) {
	n := d.view().names[simnet.NodeID(name)]
	if n == nil {
		return nil, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.data.get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// CorruptStored mutates the named node's local copy of key in place —
// seeded bit-rot injection for chaos experiments. It reports whether the
// node held the key. The mutation happens on the stored bytes themselves
// (that is the point: the scrubber must find and repair it).
func (d *DHT) CorruptStored(name, key string, mutate func([]byte) []byte) bool {
	n := d.view().names[simnet.NodeID(name)]
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	v, top, ok := n.data.getTop(key)
	if !ok {
		return false
	}
	n.data.put(key, top, mutate(append([]byte(nil), v...)))
	return true
}
