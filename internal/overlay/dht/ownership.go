package dht

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ownershipCache remembers, per learned successor root R, R's whole Chord
// segment (pred(R), R]. A walk proves it: the node whose answer ends the
// walk is R's ring predecessor (findSuccessor), so any later identifier
// inside that segment is owned by R without another walk. Where the per-key
// route cache only answers for keys it has seen, this cache answers for
// every key hashing into a learned segment. It is the first step of the
// resolution order (routecache.go) on every path; only batch walks teach
// it, and after batches have walked to each live root, a cold key's
// resolution is free on either path.
//
// Staleness model: identical to the route cache's. Learned segments can
// only be wrong after the ring or the placement filter changes, so clear()
// is called from the same events that bump the route cache's generation
// (Join, Leave, repairing Heal passes, SetPlacementFilter,
// InvalidateRoutes). And like the route cache's fenced fill, a walk reads
// the clear count before it starts and learn drops its segment if a clear
// landed meanwhile: a walk over the old ring never teaches the new one.
type ownershipCache struct {
	mu     sync.Mutex
	clears atomic.Uint64     // clear() calls so far; written under mu
	pred   map[uint64]uint64 // root → its ring predecessor: root owns (pred, root]
	roots  []uint64          // learned roots, sorted ascending
}

// fence returns the clear count for a walk to pass to learn.
func (c *ownershipCache) fence() uint64 { return c.clears.Load() }

// learn records that a walk for kid ended at root with lo's answer, which
// proves (lo, root] is root's whole segment. fence is the clear count read
// before the walk began; if a clear has happened since, the segment is
// dropped. So is one that does not contain kid (an answer read off a view
// that changed under the walk) and lo == root: (root, root] is
// indistinguishable from the whole ring.
func (c *ownershipCache) learn(kid, lo, root, fence uint64) {
	if lo == root || !inInterval(kid, lo, root) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pred[root]; ok || c.clears.Load() != fence {
		return
	}
	if c.pred == nil {
		c.pred = make(map[uint64]uint64)
	}
	c.pred[root] = lo
	i := sort.Search(len(c.roots), func(i int) bool { return c.roots[i] >= root })
	c.roots = append(c.roots, 0)
	copy(c.roots[i+1:], c.roots[i:])
	c.roots[i] = root
}

// lookup resolves kid against the learned segments. Only kid's circular
// successor among the learned roots can own it, so one binary search
// decides.
func (c *ownershipCache) lookup(kid uint64) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.roots) == 0 {
		return 0, false
	}
	i := sort.Search(len(c.roots), func(i int) bool { return c.roots[i] >= kid })
	root := c.roots[i%len(c.roots)] // wrap: past the last root, the first one succeeds kid
	if inInterval(kid, c.pred[root], root) {
		return root, true
	}
	return 0, false
}

// clear forgets every learned segment and fences every walk in flight.
func (c *ownershipCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clears.Add(1)
	c.pred = nil
	c.roots = nil
}

// bumpRoutes invalidates both routing memoizations together: the per-key
// route cache (generation bump) and the learned ownership segments. Every
// ring or placement mutation must go through here — a stale segment is
// exactly as wrong as a stale cached route.
func (d *DHT) bumpRoutes() {
	d.routes.BumpGeneration()
	d.ownership.clear()
}
