package dht

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ownershipCache remembers, per learned successor root, the widest slice of
// the identifier ring observed to resolve to it. Chord ownership is the
// half-open interval (pred(R), R]: one iterative walk that resolves kid → R
// proves (kid, R] ⊆ ownership(R), so any later identifier inside that span
// is owned by R without another walk. Where the per-key route cache only
// answers for keys it has seen, this cache answers for every key hashing
// into a learned interval. It is the first step of the one resolution
// order (routecache.go) that batches and single-key operations share;
// only batch walks teach it, and after one batch has walked to each live
// root, a cold key's resolution is usually free on either path.
//
// Staleness model: identical to the route cache's. Learned intervals can
// only be wrong after the ring or the placement filter changes, so clear()
// is called from the same events that bump the route cache's generation
// (Join, Leave, repairing Heal passes, SetPlacementFilter,
// InvalidateRoutes). And like the route cache's fenced fill, a walk reads
// the clear count before it starts and learn drops its interval if a clear
// landed meanwhile: a walk over the old ring never teaches the new one.
type ownershipCache struct {
	mu     sync.Mutex
	clears atomic.Uint64     // clear() calls so far; written under mu
	minKid map[uint64]uint64 // root → lower bound of its learned interval
	roots  []uint64          // learned roots, sorted ascending
}

// fence returns the clear count for a walk to pass to learn.
func (c *ownershipCache) fence() uint64 { return c.clears.Load() }

// learn records that kid resolved to root, widening root's learned interval
// when kid lies further counterclockwise than the current bound. fence is
// the clear count read before the walk began; if a clear has happened
// since, the observation is dropped. A kid equal to its root is skipped:
// the interval (root, root] is indistinguishable from the whole ring.
func (c *ownershipCache) learn(kid, root, fence uint64) {
	if kid == root {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clears.Load() != fence {
		return
	}
	m, ok := c.minKid[root]
	if !ok {
		if c.minKid == nil {
			c.minKid = make(map[uint64]uint64)
		}
		c.minKid[root] = kid
		i := sort.Search(len(c.roots), func(i int) bool { return c.roots[i] >= root })
		c.roots = append(c.roots, 0)
		copy(c.roots[i+1:], c.roots[i:])
		c.roots[i] = root
		return
	}
	// kid widens the interval when the current bound lies inside (kid, root].
	if inInterval(m, kid, root) {
		c.minKid[root] = kid
	}
}

// lookup resolves kid against the learned intervals. Only kid's circular
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
	if kid == root {
		return root, true
	}
	m := c.minKid[root]
	if kid == m || inInterval(kid, m, root) {
		return root, true
	}
	return 0, false
}

// clear forgets every learned interval and fences every walk in flight.
func (c *ownershipCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clears.Add(1)
	c.minKid = nil
	c.roots = nil
}

// bumpRoutes invalidates both routing memoizations together: the per-key
// route cache (generation bump) and the learned ownership intervals. Every
// ring or placement mutation must go through here — a stale interval is
// exactly as wrong as a stale cached route.
func (d *DHT) bumpRoutes() {
	d.routes.BumpGeneration()
	d.ownership.clear()
}
