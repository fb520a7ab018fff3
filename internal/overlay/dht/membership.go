package dht

import (
	"fmt"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// This file implements dynamic membership: nodes joining and leaving the
// ring after construction, with key handoff and routing-state rebuild. The
// simulator rebuilds finger tables from the global view (the conventional
// shortcut for Chord's stabilization protocol); what is preserved is the
// observable behaviour — keys stay resolvable across membership changes.

// Join adds a node to the ring: it registers with the network, takes over
// the key range it now succeeds, and routing state is refreshed.
func (d *DHT) Join(name simnet.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.view()
	if _, ok := old.names[name]; ok {
		return fmt.Errorf("dht: %s already joined", name)
	}
	n := &node{id: freeID(hashID(string(name)), old.byID), name: name}
	if err := d.net.Register(name, d.handlerFor(n)); err != nil {
		return fmt.Errorf("dht: registering %s: %w", name, err)
	}
	registerCrashHook(d.net, n)
	v := newRingView(append(old.members(), n), d.replica, old.allowPlace, old.rankRepl)

	// Key handoff: the new node takes keys from its successor that now
	// hash into its range (predecessor, id]. It is filled before the view
	// that makes it routable is published.
	if succ := v.byID[v.successorID(n.id+1)]; succ != n {
		pred := v.predecessorID(n.id)
		succ.mu.Lock()
		n.mu.Lock()
		// The walk must not see the store change, so the moved keys leave
		// the successor after it; put copies, so the two stores never share
		// a backing array.
		var moved []string
		succ.data.each(func(key string, top uint32, value []byte) {
			if inInterval(d.keyID(key), pred, n.id) {
				n.data.put(key, top, value)
				moved = append(moved, key)
			}
		})
		n.mu.Unlock()
		for _, key := range moved {
			succ.data.del(key)
		}
		succ.mu.Unlock()
	}
	d.ring.Store(v)
	d.bumpRoutes() // memoized routes predate the new node's range
	return nil
}

// Leave removes a node gracefully: its keys are handed to its successor and
// routing state is refreshed. Ungraceful departures are modeled with
// simnet.SetOnline instead (no handoff — that is what replication is for).
func (d *DHT) Leave(name simnet.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.view()
	n, ok := old.names[name]
	if !ok {
		return fmt.Errorf("dht: %s not in ring", name)
	}
	if len(old.ring) == 1 {
		return overlay.ErrNoNodes
	}
	// The successor is computed on the ring without the leaver.
	rest := make([]*node, 0, len(old.ring)-1)
	for _, m := range old.members() {
		if m != n {
			rest = append(rest, m)
		}
	}
	v := newRingView(rest, d.replica, old.allowPlace, old.rankRepl)
	succ := v.byID[v.successorID(n.id)]
	n.mu.Lock()
	succ.mu.Lock()
	n.data.each(succ.data.put)
	succ.mu.Unlock()
	n.data.reset()
	n.mu.Unlock()
	d.net.SetOnline(name, false)
	d.ring.Store(v)
	d.bumpRoutes() // memoized routes may point at the departed node
	return nil
}

// Size returns the current ring size.
func (d *DHT) Size() int { return len(d.view().ring) }
