package dht

import (
	"fmt"
	"sort"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/parallel"
	"godosn/internal/telemetry"
)

// This file implements the DHT's fault-tolerance surface: crash semantics
// (volatile storage lost on simnet.Crash), per-replica addressing for
// hedged reads (overlay.ReplicaKV), and anti-entropy self-healing
// (overlay.Healer) that re-replicates under-replicated keys after churn.

var (
	_ overlay.ReplicaKV       = (*DHT)(nil)
	_ overlay.Healer          = (*DHT)(nil)
	_ overlay.SpanKV          = (*DHT)(nil)
	_ overlay.SpanHealer      = (*DHT)(nil)
	_ overlay.ReplicaRankable = (*DHT)(nil)
)

// SetReplicaRanker implements overlay.ReplicaRankable: rank reorders the
// candidate list ReplicasFor returns (nil restores canonical ring order).
// The resilience layer wires its replica-health tracker in here so hedged
// reads prefer lightly-loaded replicas. Only selection order changes —
// membership of the candidate set is still ring position and liveness.
func (d *DHT) SetReplicaRanker(rank func(names []string) []string) {
	d.mu.Lock()
	v := *d.view()
	v.rankRepl = rank
	d.ring.Store(&v)
	d.mu.Unlock()
}

// registerCrashHook wires a node's volatile storage to simnet crash
// injection: a crash-restart loses every key the node held.
func registerCrashHook(net *simnet.Network, n *node) {
	_ = net.OnCrash(n.name, func() {
		n.mu.Lock()
		n.data.reset()
		n.mu.Unlock()
	})
}

// ReplicasFor implements overlay.ReplicaKV: it routes to the key's root and
// returns the canonical replica set followed by additional currently-online
// successors, so hedged reads have live candidates even when canonical
// replicas are down. At most 2× the replication factor names are returned,
// in a slice that may be shared and must not be written (replicaPlan).
func (d *DHT) ReplicasFor(origin, key string) ([]string, overlay.OpStats, error) {
	f := borrowFrame()
	defer returnFrame(f)
	root, err := d.resolveRoot(f, nil, simnet.NodeID(origin), key, hashID(key), false)
	if err != nil {
		return nil, f.tr, err
	}
	return d.replicaPlan(root), f.tr, nil
}

// replicaPlan computes the candidate list for a resolved root: the
// canonical replica set, the online extension walk, and the health ranking.
// Shared by ReplicasFor (routed root) and PlanReplicas (local hash root —
// segmentOf lands on the same successor either way). When every canonical
// holder is online and allowed by placement and no ranker is set, the walk
// would add nothing, and the plan is the view's shared canonical slice: a
// read on a healthy ring allocates no plan. The result is read-only either
// way (overlay.ReplicaKV).
func (d *DHT) replicaPlan(root uint64) []string {
	v := d.view()
	i := v.segmentOf(root)
	canon := v.canonicalNames(i)
	// Placement-vetoed (quarantined) nodes stay in the returned list — they
	// may hold older copies — but do not count toward the online target, so
	// the extension reaches the nodes placement actually chose around them.
	online := 0
	for _, name := range canon {
		if d.net.Online(simnet.NodeID(name)) && v.placementAllowed(simnet.NodeID(name)) {
			online++
		}
	}
	if online == len(canon) && v.rankRepl == nil {
		return canon
	}
	// Extend past the canonical set until d.replica online candidates are
	// found (or the ring is exhausted), mirroring where Heal re-replicates.
	names := append(make([]string, 0, 2*d.replica), canon...)
	for j := len(canon); j < len(v.ring) && online < d.replica && len(names) < 2*d.replica; j++ {
		n := v.byID[v.ring[(i+j)%len(v.ring)]]
		if d.net.Online(n.name) {
			names = append(names, string(n.name))
			if v.placementAllowed(n.name) {
				online++
			}
		}
	}
	if v.rankRepl != nil {
		names = v.rankRepl(names)
	}
	return names
}

// LookupFrom implements overlay.ReplicaKV: a single direct fetch from one
// named replica, without walking the rest of the replica set.
func (d *DHT) LookupFrom(origin, key, replica string) ([]byte, overlay.OpStats, error) {
	rn := d.view().names[simnet.NodeID(replica)]
	if rn == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: replica %s", simnet.ErrUnknownNode, replica)
	}
	f := borrowFrame()
	defer returnFrame(f)
	tr := &f.tr
	f.fetch.Key = key
	reply, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, simnet.Message{
		Kind:    kindFetch,
		Payload: &f.fetch,
		Size:    len(key),
	})
	if err != nil {
		return nil, *tr, err
	}
	resp, ok := reply.Payload.(*fetchResp)
	if !ok || resp == nil {
		return nil, *tr, fmt.Errorf("dht: bad fetch reply")
	}
	if !resp.Found {
		return nil, *tr, overlay.ErrNotFound
	}
	return resp.Value, *tr, nil
}

// Heal implements overlay.Healer: one anti-entropy pass. Every online
// node's local store is scanned (a node-local operation, free of network
// cost); each key whose live replica set is incomplete is pushed, by an
// online holder, to the online successors missing it. Re-replication RPCs
// are charged to the report's stats.
func (d *DHT) Heal() (overlay.HealReport, error) {
	return d.HealSpan(nil)
}

// healPush is one planned re-replication copy.
type healPush struct {
	key   string
	value []byte
	src   simnet.NodeID
	dst   simnet.NodeID
}

// healView is the frozen world one heal pass plans against: the ring, who
// is online, and each ring segment's live target set — the first k online
// successors of the segment's root that placement allows, walking past
// offline and quarantined canonical replicas, which is where Heal
// replicates to and ReplicasFor extends into. Every key hashing into
// segment i (ring[i-1], ring[i]] shares targets[i], so the sets are
// computed once per pass instead of once per key.
type healView struct {
	ring    []uint64
	online  []*node   // online nodes in ring order
	targets [][]*node // per ring segment
}

// healViewLocked snapshots ring and liveness; call with d.mu held, so the
// membership cannot change under the pass. As in placementOf, a filter that
// vetoes every online node falls back to all of them: it cannot brick heal.
func (d *DHT) healViewLocked() *healView {
	rv := d.view()
	ring, nodes := rv.ring, rv.members()
	v := &healView{ring: ring, targets: make([][]*node, len(ring))}
	up := make([]bool, len(ring))
	target := make([]bool, len(ring)) // online and allowed by placement
	k := 0
	for i := range ring {
		if up[i] = d.net.Online(nodes[i].name); up[i] {
			v.online = append(v.online, nodes[i])
			if target[i] = rv.placementAllowed(nodes[i].name); target[i] {
				k++
			}
		}
	}
	if k == 0 {
		target, k = up, len(v.online)
	}
	if k > d.replica {
		k = d.replica
	}
	flat := make([]*node, 0, k*len(ring))
	for i := range ring {
		start := len(flat)
		for j := i; len(flat)-start < k; j = (j + 1) % len(ring) {
			if target[j] {
				flat = append(flat, nodes[j])
			}
		}
		v.targets[i] = flat[start:len(flat):len(flat)]
	}
	return v
}

// targetsOf returns the live target set of key's ring segment.
func (v *healView) targetsOf(key string) []*node {
	kid := hashID(key)
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= kid })
	if i == len(v.ring) {
		i = 0
	}
	return v.targets[i]
}

// healScan is one node's share of a heal pass.
type healScan struct {
	checked   int      // keys this node is the checker of
	deficient []string // of those, the ones some target lacks
	orphans   []string // keys this non-target node holds and no target does
}

// scan walks n's store against the view. A key's checker is the first of
// its targets that holds it: it alone counts the key, and reports it when
// any target (earlier, so n is not first, or later) lacks a copy. Every
// other holder stops at the first earlier target it finds holding the key,
// so a fully replicated key costs k hashes and k+1 store probes across its
// holders and allocates nothing. A holder outside the target set reports
// the key only when no target holds it (several may: merged by the caller).
// Stores are read without locks: planHeal holds every online node's.
func (v *healView) scan(n *node) healScan {
	var out healScan
	n.data.each(func(key string, _ []byte) {
		targets := v.targetsOf(key)
		for j, t := range targets {
			if t == n {
				out.checked++
				if j > 0 || !heldByAll(targets[j+1:], key) {
					out.deficient = append(out.deficient, key)
				}
				return
			}
			if t.data.has(key) {
				return
			}
		}
		out.orphans = append(out.orphans, key)
	})
	return out
}

// heldByAll reports whether every node holds key (node locks held).
func heldByAll(nodes []*node, key string) bool {
	for _, n := range nodes {
		if !n.data.has(key) {
			return false
		}
	}
	return true
}

// planHeal finds every under-replicated key and plans its pushes, in key
// order: the lowest-ring-id online holder pushes to each online target
// missing a copy, in target order. Node-local, free of network cost. It
// returns the number of distinct keys online nodes hold and the plan.
func (d *DHT) planHeal() (int, []healPush) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.healViewLocked()
	// Freeze the online stores for the pass (ring order; every other path
	// takes one node lock at a time, or holds d.mu as this one does), so the
	// per-node scans below are independent lock-free reads.
	for _, n := range v.online {
		n.mu.Lock()
	}
	defer func() {
		for _, n := range v.online {
			n.mu.Unlock()
		}
	}()
	scans, _ := parallel.Map(0, v.online, func(_ int, n *node) (healScan, error) {
		return v.scan(n), nil
	})
	scanned := 0
	var keys, orphans []string
	for _, s := range scans {
		scanned += s.checked
		keys = append(keys, s.deficient...)
		orphans = append(orphans, s.orphans...)
	}
	sort.Strings(orphans)
	for i, key := range orphans {
		if i == 0 || key != orphans[i-1] {
			scanned++
			keys = append(keys, key)
		}
	}
	sort.Strings(keys) // deterministic pass order

	var plan []healPush
	for _, key := range keys {
		var src *node
		var value []byte
		for _, n := range v.online {
			if stored, held := n.data.get(key); held {
				// The log's own bytes: immutable, and the target's put copies.
				src, value = n, stored
				break
			}
		}
		for _, target := range v.targetsOf(key) {
			if !target.data.has(key) {
				plan = append(plan, healPush{key: key, value: value, src: src.name, dst: target.name})
			}
		}
	}
	return scanned, plan
}

// HealSpan implements overlay.SpanHealer: Heal with each re-replication
// push attributed to a "repair" child span of sp (nil sp: identical
// untraced pass).
func (d *DHT) HealSpan(sp *telemetry.Span) (overlay.HealReport, error) {
	scanned, flat := d.planHeal() // key-major plan order (the per-key baseline order)
	tr := &simnet.Trace{}
	report := overlay.HealReport{KeysScanned: scanned}

	// The plan is either executed per key (PerKeyHeal: one store RPC per
	// push, the measured baseline) or coalesced per (holder, target) pair
	// into store_batch envelopes — one message pair moves every key that
	// pair shares.
	type healPair struct{ src, dst simnet.NodeID }
	var pairOrder []healPair
	planned := make(map[healPair][]healPush)
	failed := make(map[string]bool)
	// One frame carries every push of the pass, one RPC at a time.
	f := borrowFrame()
	defer returnFrame(f)
	if d.perKeyHeal {
		// One store RPC per copy, in key-major order; a drop leaves the
		// key for the next pass rather than failing the whole heal.
		for _, p := range flat {
			f.tr = simnet.Trace{}
			f.store = storeReq{Key: p.key, Value: p.value}
			psp := sp.Child("repair")
			psp.Tag("key", p.key)
			psp.Tag("to", string(p.dst))
			_, err := d.net.RPC(&f.tr, p.src, p.dst, simnet.Message{
				Kind:    kindStore,
				Payload: &f.store,
				Size:    len(p.key) + len(p.value),
			})
			tr.Add(&f.tr)
			psp.AddLatency(f.tr.Latency)
			psp.End(spanOutcome(err))
			if err == nil {
				report.Repaired++
			} else {
				failed[p.key] = true
			}
		}
	} else {
		for _, p := range flat {
			pk := healPair{src: p.src, dst: p.dst}
			if _, ok := planned[pk]; !ok {
				pairOrder = append(pairOrder, pk)
			}
			planned[pk] = append(planned[pk], p)
		}
	}
	req := &f.storeBatch
	for _, pk := range pairOrder {
		pushes := planned[pk]
		req.reset()
		for _, p := range pushes {
			req.Keys = append(req.Keys, p.key)
			req.Values = append(req.Values, p.value)
		}
		f.tr = simnet.Trace{}
		psp := sp.Child("repair")
		psp.Tag("to", string(pk.dst))
		psp.Tag("keys", fmt.Sprintf("%d", len(pushes)))
		_, err := d.net.RPC(&f.tr, pk.src, pk.dst, req.message())
		tr.Add(&f.tr)
		psp.AddLatency(f.tr.Latency)
		psp.End(spanOutcome(err))
		if err == nil {
			report.Repaired += len(pushes)
		} else {
			// A dropped envelope leaves its keys for the next pass.
			for _, p := range pushes {
				failed[p.key] = true
			}
		}
	}
	report.Unrepairable = len(failed)
	report.Stats = *tr
	if report.Repaired > 0 {
		// Copies moved: memoized routes may predate the repaired layout.
		d.bumpRoutes()
	}
	return report, nil
}
