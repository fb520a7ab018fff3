package dht

import (
	"sort"

	"godosn/internal/overlay/simnet"
)

// ringView is an immutable snapshot of everything routing and placement
// read: membership, the sorted ring, every node's finger table, the
// placement filter and the replica ranker. The writers (New, Join, Leave,
// SetPlacementFilter, SetReplicaRanker, serialised by DHT.mu) build a new
// view and publish it by atomic pointer; readers load it without a lock and
// never see a half-updated ring or a finger table under rewrite. A node's
// stored keys are not part of the view — they stay behind node.mu.
type ringView struct {
	ring       []uint64 // sorted node ids
	byID       map[uint64]*node
	names      map[simnet.NodeID]*node
	fingers    map[uint64][]uint64           // node id → finger[i] = successor(id + 2^i)
	allowPlace func(node string) bool        // placement veto (integrity.go); nil = canonical
	rankRepl   func(names []string) []string // replica-selection order (repair.go); nil = ring order
}

// newRingView builds the view of a ring with exactly these members. Finger
// tables are computed from the global membership, as simulators
// conventionally do in place of the incremental Chord join protocol.
func newRingView(nodes []*node, allowPlace func(string) bool, rankRepl func([]string) []string) *ringView {
	v := &ringView{
		ring:       make([]uint64, 0, len(nodes)),
		byID:       make(map[uint64]*node, len(nodes)),
		names:      make(map[simnet.NodeID]*node, len(nodes)),
		fingers:    make(map[uint64][]uint64, len(nodes)),
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
	return v
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

// successorID returns the first ring node id clockwise from target.
func (v *ringView) successorID(target uint64) uint64 {
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= target })
	if i == len(v.ring) {
		i = 0
	}
	return v.ring[i]
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
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= target })
	for ; k > 0; k-- {
		if i == len(v.ring) {
			i = 0
		}
		out = append(out, v.ring[i])
		i++
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
