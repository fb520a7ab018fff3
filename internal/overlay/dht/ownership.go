package dht

import (
	"cmp"
	"slices"
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
//
// The learned segments are an immutable snapshot behind an atomic pointer,
// so lookup, which every single-key operation and batch key runs first,
// takes no lock. learn copies the snapshot with its segment added under the
// writer mutex — at most once per root between clears, so the copies are
// bounded by the ring's size — and clear stores nil.
type ownershipCache struct {
	mu     sync.Mutex                // serialises learn and clear
	clears atomic.Uint64             // clear() calls so far; written under mu
	segs   atomic.Pointer[[]segment] // learned segments sorted by root; nil = none
}

// segment is a learned root's whole Chord segment (pred, root].
type segment struct {
	pred, root uint64
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
	var old []segment
	if p := c.segs.Load(); p != nil {
		old = *p
	}
	i, known := slices.BinarySearchFunc(old, root, bySegmentRoot)
	if known || c.clears.Load() != fence {
		return
	}
	next := make([]segment, 0, len(old)+1)
	next = append(append(append(next, old[:i]...), segment{pred: lo, root: root}), old[i:]...)
	c.segs.Store(&next)
}

// lookup resolves kid against the learned segments. Only kid's circular
// successor among the learned roots can own it, so one binary search
// decides.
func (c *ownershipCache) lookup(kid uint64) (uint64, bool) {
	p := c.segs.Load()
	if p == nil {
		return 0, false
	}
	segs := *p
	i, _ := slices.BinarySearchFunc(segs, kid, bySegmentRoot)
	s := segs[i%len(segs)] // wrap: past the last root, the first one succeeds kid
	if inInterval(kid, s.pred, s.root) {
		return s.root, true
	}
	return 0, false
}

func bySegmentRoot(s segment, id uint64) int { return cmp.Compare(s.root, id) }

// clear forgets every learned segment and fences every walk in flight.
func (c *ownershipCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clears.Add(1)
	c.segs.Store(nil)
}

// bumpRoutes invalidates both routing memoizations together: the per-key
// route cache (generation bump) and the learned ownership segments. Every
// ring or placement mutation must go through here — a stale segment is
// exactly as wrong as a stale cached route.
func (d *DHT) bumpRoutes() {
	d.routes.BumpGeneration()
	d.ownership.clear()
}
