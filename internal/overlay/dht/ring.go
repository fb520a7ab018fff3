package dht

import (
	"sort"
	"sync/atomic"

	"godosn/internal/overlay/simnet"
)

// ringView is an immutable snapshot of everything routing and placement
// read: membership, the sorted ring, every node's finger table, each ring
// segment's canonical replica names, the placement filter and the replica
// ranker. The writers (New, Join, Leave, SetPlacementFilter,
// SetReplicaRanker, serialised by DHT.mu) build a new view and publish it by
// atomic pointer; readers load it without a lock and never see a
// half-updated ring or a finger table under rewrite. The two setters copy
// the view and so share its tables, which only a membership change rebuilds.
// The one part of a view written after it is published is plans, each
// segment's last extended replica plan: a plan is published whole by atomic
// pointer and never written after, and replicaPlan hands it out only when
// its own walk found the same names, so views sharing the memos stay exact.
// A node's stored keys are not part of the view — they stay behind node.mu.
type ringView struct {
	ring       []uint64 // sorted node ids
	byID       map[uint64]*node
	names      map[simnet.NodeID]*node
	fingers    map[uint64][]uint64           // node id → finger[i] = successor(id + 2^i)
	ringNames  []string                      // member names in ring order, wrapped by k-1 (canonicalNames)
	k          int                           // canonical replica set size: min(replication factor, members)
	allowPlace func(node string) bool        // placement veto (integrity.go); nil = canonical
	rankRepl   func(names []string) []string // replica-selection order (repair.go); nil = ring order
	plans      []atomic.Pointer[[]string]    // per ring segment, its last extended replica plan (replicaPlan)
}

// newRingView builds the view of a ring with exactly these members and
// replication factor replica. Finger tables are computed from the global
// membership, as simulators conventionally do in place of the incremental
// Chord join protocol.
func newRingView(nodes []*node, replica int, allowPlace func(string) bool, rankRepl func([]string) []string) *ringView {
	v := &ringView{
		ring:       make([]uint64, 0, len(nodes)),
		byID:       make(map[uint64]*node, len(nodes)),
		names:      make(map[simnet.NodeID]*node, len(nodes)),
		fingers:    make(map[uint64][]uint64, len(nodes)),
		plans:      make([]atomic.Pointer[[]string], len(nodes)),
		k:          min(replica, len(nodes)),
		allowPlace: allowPlace,
		rankRepl:   rankRepl,
	}
	for _, n := range nodes {
		v.ring = append(v.ring, n.id)
		v.byID[n.id] = n
		v.names[n.name] = n
	}
	sort.Slice(v.ring, func(i, j int) bool { return v.ring[i] < v.ring[j] })
	tables := make([]uint64, ringBits*len(nodes))
	for k, id := range v.ring {
		finger := tables[k*ringBits : (k+1)*ringBits : (k+1)*ringBits]
		for i := range finger {
			finger[i] = v.successorID(id + uint64(1)<<uint(i))
		}
		v.fingers[id] = finger
	}
	v.ringNames = make([]string, 0, len(v.ring)+v.k-1)
	for i := 0; i < len(v.ring)+v.k-1; i++ {
		v.ringNames = append(v.ringNames, string(v.byID[v.ring[i%len(v.ring)]].name))
	}
	return v
}

// canonicalNames returns the names of the first k successors of ring
// segment i (keys in (ring[i-1], ring[i]]), in ring order. The slice is
// shared by every caller and capacity-capped, so an append copies instead of
// writing over the next segment's names; nobody may write through it.
func (v *ringView) canonicalNames(i int) []string {
	return v.ringNames[i : i+v.k : i+v.k]
}

// members returns the view's nodes in ring order.
func (v *ringView) members() []*node {
	out := make([]*node, len(v.ring))
	for i, id := range v.ring {
		out[i] = v.byID[id]
	}
	return out
}

// freeID returns id, or the next identifier no member holds — improbable
// hash collisions resolve deterministically.
func freeID(id uint64, taken map[uint64]*node) uint64 {
	for {
		if _, dup := taken[id]; !dup {
			return id
		}
		id++
	}
}

// segmentOf returns the ring index of target's successor: the segment i
// with target in (ring[i-1], ring[i]].
func (v *ringView) segmentOf(target uint64) int {
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= target })
	if i == len(v.ring) {
		i = 0
	}
	return i
}

// successorID returns the first ring node id clockwise from target.
func (v *ringView) successorID(target uint64) uint64 {
	return v.ring[v.segmentOf(target)]
}

// predecessorID returns the first ring node id counter-clockwise from
// target (exclusive).
func (v *ringView) predecessorID(target uint64) uint64 {
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= target })
	if i == 0 {
		return v.ring[len(v.ring)-1]
	}
	return v.ring[i-1]
}

// replicaIDs is the room callers give successorsOf and placementOf: in an
// operation frame or on the stack, a replica set of up to eight costs no
// allocation, and a larger one spills to the heap by append.
type replicaIDs [8]uint64

// successorsOf appends up to k distinct node ids clockwise from target to
// out (a replicaIDs' [:0]).
func (v *ringView) successorsOf(out []uint64, target uint64, k int) []uint64 {
	if k > len(v.ring) {
		k = len(v.ring)
	}
	for i := v.segmentOf(target); k > 0; k-- {
		out = append(out, v.ring[i])
		if i++; i == len(v.ring) {
			i = 0
		}
	}
	return out
}

// closestPrecedingFinger returns node id's best routing step toward key —
// id itself when it has none, or is no longer a member.
func (v *ringView) closestPrecedingFinger(id, key uint64) uint64 {
	finger := v.fingers[id]
	for i := len(finger) - 1; i >= 0; i-- {
		f := finger[i]
		if f != id && inInterval(f, id, key-1) {
			return f
		}
	}
	return id
}

// placementAllowed consults the placement filter.
func (v *ringView) placementAllowed(name simnet.NodeID) bool {
	return v.allowPlace == nil || v.allowPlace(string(name))
}

// placementOf appends to out (empty, as for successorsOf) the replica
// placement for a key root: the first k successors passing the placement
// filter, walking past vetoed nodes. With no filter this is exactly
// successorsOf. A filter that vetoes every node falls back to the canonical
// set — an unusable filter must not brick writes.
func (v *ringView) placementOf(out []uint64, root uint64, k int) []uint64 {
	if v.allowPlace == nil {
		return v.successorsOf(out, root, k)
	}
	if k > len(v.ring) {
		k = len(v.ring)
	}
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= root })
	for walked := 0; walked < len(v.ring) && len(out) < k; walked++ {
		if i == len(v.ring) {
			i = 0
		}
		rid := v.ring[i]
		i++
		if v.placementAllowed(v.byID[rid].name) {
			out = append(out, rid)
		}
	}
	if len(out) == 0 {
		return v.successorsOf(out, root, k)
	}
	return out
}
