package dht

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"

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
	root, err := d.resolveRoot(f, nil, simnet.NodeID(origin), key, d.keyID(key), false)
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
// are charged to the report's stats. A copy the last clean pass proved and
// nothing has disturbed since is not probed again (healMemo): the plan and
// the report are exactly a full pass's, and the copies a pass did probe are
// counted in dht_heal_copies_checked_total.
func (d *DHT) Heal() (overlay.HealReport, error) {
	return d.HealSpan(nil)
}

// healView is the frozen world one heal pass plans against: the ring, who
// is online, and each ring segment's live target set — the first k online
// successors of the segment's root that placement allows, walking past
// offline and quarantined canonical replicas, which is where Heal
// replicates to and ReplicasFor extends into. Every key whose ring id falls
// into segment i (ring[i-1], ring[i]] shares targets[i], so the sets are
// computed once per pass instead of once per key. A node's row is its index
// in online; targets name nodes by row.
//
// Once the pass's pushes have all landed, the view is the DHT's heal memo:
// with proofs filled in, it is what that pass proved (healProof).
type healView struct {
	d       *DHT
	ring    []uint64
	online  []*node     // online nodes in ring order
	targets [][]int32   // per ring segment, the rows of its live targets
	proofs  []healProof // per row, filled by planHeal
}

// healProof is what a clean pass proved of one node online when it planned.
// The node's records numbered below records (its mark, its record count
// then) are copies of keys that every live target of their segment held once
// the pass's pushes landed, and first of them are copies of keys whose
// segment's first target the node is. gen is the node's store generation
// then: while no online node's generation has moved, no store has lost a
// record, so record numbers below the mark still name the same keys and
// every target still holds them.
type healProof struct {
	n       *node
	records int
	gen     uint64
	first   int
}

// healViewLocked snapshots ring and liveness; call with d.mu held, so the
// membership cannot change under the pass. As in placementOf, a filter that
// vetoes every online node falls back to all of them: it cannot brick heal.
func (d *DHT) healViewLocked() *healView {
	rv := d.view()
	ring, nodes := rv.ring, rv.members()
	v := &healView{d: d, ring: ring, targets: make([][]int32, len(ring))}
	row := make([]int32, len(ring))   // ring position → row, -1 offline
	target := make([]bool, len(ring)) // online and allowed by placement
	k := 0
	for i := range ring {
		row[i] = -1
		if d.net.Online(nodes[i].name) {
			row[i] = int32(len(v.online))
			v.online = append(v.online, nodes[i])
			if target[i] = rv.placementAllowed(nodes[i].name); target[i] {
				k++
			}
		}
	}
	if k == 0 {
		for i := range target {
			target[i] = row[i] >= 0
		}
		k = len(v.online)
	}
	if k > d.replica {
		k = d.replica
	}
	flat := make([]int32, 0, k*len(ring))
	for i := range ring {
		start := len(flat)
		for j := i; len(flat)-start < k; j = (j + 1) % len(ring) {
			if target[j] {
				flat = append(flat, row[j])
			}
		}
		v.targets[i] = flat[start:len(flat):len(flat)]
	}
	return v
}

// segment returns the ring segment of the key whose ring id has the top
// bits top (its record keeps them): the segment of the first ring id at or
// after the key's. The top bits decide it unless a ring id shares them, and
// only then is the key hashed — on a ring of n nodes, a share of about
// n/2^32 of the copies.
func (v *healView) segment(key string, top uint32) int {
	i, _ := slices.BinarySearch(v.ring, uint64(top)<<32)
	if i < len(v.ring) && idTop(v.ring[i]) == top {
		i, _ = slices.BinarySearch(v.ring, v.d.keyID(key))
	}
	if i == len(v.ring) {
		i = 0
	}
	return i
}

// proofOf returns the memo's proof of n, or a zero proof (nothing proved,
// mark 0) when n was not online at the memo's pass.
func (v *healView) proofOf(n *node) healProof {
	i, found := slices.BinarySearchFunc(v.proofs, n.id, func(m healProof, id uint64) int {
		return cmp.Compare(m.n.id, id)
	})
	if !found || v.proofs[i].n != n {
		return healProof{}
	}
	return v.proofs[i]
}

// reuse decides what this pass may take on memo's word (nil: no memo). It
// takes nothing when the ring moved or an online node's store lost a record
// since the memo's pass; else it returns the memo and the segments whose
// live targets are not the memo's, in order (nil when none moved: the scans
// then start at the marks and never walk an older record). A node offline
// at the memo's pass has no mark, so all its copies are probed.
func (v *healView) reuse(memo *healView) (*healView, []bool) {
	if memo == nil || !slices.Equal(memo.ring, v.ring) {
		return nil, nil
	}
	for _, n := range v.online {
		if m := memo.proofOf(n); m.n != nil && m.gen != n.data.gen {
			return nil, nil
		}
	}
	var changed []bool
	for i, ts := range v.targets {
		was := memo.targets[i]
		same := len(ts) == len(was)
		for j := 0; same && j < len(ts); j++ {
			same = v.online[ts[j]] == memo.online[was[j]]
		}
		if !same {
			if changed == nil {
				changed = make([]bool, len(v.targets))
			}
			changed[i] = true
		}
	}
	return memo, changed
}

// healScan is one node's share of a heal pass: the keys it checks, and
// marks over its records (in each's order) for the keys it reports.
type healScan struct {
	checked   int   // keys this node is the checker of
	probed    int   // copies probed: not skipped on the memo's word
	first     int   // records whose segment's first target this node is
	deficient marks // of the checked keys, the ones some target lacks
	orphans   marks // keys this non-target node holds and no target does
}

// marks is a set of record numbers of one store: a bitmap, allocated at the
// first mark, so a node with nothing to report allocates nothing and one
// with something allocates one bit per record, never per key reported.
type marks struct {
	bits []uint64
	n    int
}

func (m *marks) set(i, records int) {
	if m.bits == nil {
		m.bits = make([]uint64, (records+63)/64)
	}
	m.bits[i/64] |= 1 << (i % 64)
	m.n++
}

// each calls fn for every marked record number, in increasing order.
func (m *marks) each(fn func(i int)) {
	for w, word := range m.bits {
		for ; word != 0; word &= word - 1 {
			fn(64*w + bits.TrailingZeros64(word))
		}
	}
}

// scan walks the store of the node in row r against the view. A key's
// checker is the first of its targets that holds it: it alone counts the
// key, and reports it when any target (earlier, so the node is not first,
// or later) lacks a copy. Every other holder stops at the first earlier
// target it finds holding the key, so a fully replicated key costs one
// segment lookup per copy and k+1 store probes across its holders (one
// index hash per probing copy, shared by its probes), computes no ring id
// and allocates nothing. A holder outside the target set reports the key
// only when no target holds it (several may: merged by the caller).
//
// A copy below the node's mark in memo (nil: none) whose segment is not in
// changed is skipped: the memo proved every target holds its key, so it is
// counted as checked only where the node is the segment's first target, the
// key's checker. With changed nil every such copy is skipped, and the walk
// starts at the mark. Stores are read without locks: planHeal holds every
// online node's.
func (v *healView) scan(r int, memo *healView, changed []bool) healScan {
	var out healScan
	n := v.online[r]
	records := n.data.len()
	mark, start := 0, 0
	if memo != nil {
		m := memo.proofOf(n)
		mark = m.records
		if changed == nil {
			start = mark
			out.checked, out.first = m.first, m.first
		}
	}
	me, online := int32(r), v.online
next:
	for i := start; i < records; i++ {
		key, top := n.data.record(i)
		s := v.segment(key, top)
		targets := v.targets[s]
		first := targets[0] == me
		if first {
			out.first++
		}
		if i < mark && !changed[s] {
			if first {
				out.checked++
			}
			continue
		}
		out.probed++
		h := hashKey(key)
		for j, t := range targets {
			if t == me {
				out.checked++
				if j > 0 || !heldByAll(online, targets[j+1:], key, h) {
					out.deficient.set(i, records)
				}
				continue next
			}
			if _, ref := online[t].data.find(key, h); ref >= 0 {
				continue next
			}
		}
		out.orphans.set(i, records)
	}
	return out
}

// heldByAll reports whether every node of rows holds key, whose index hash
// is h (node locks held).
func heldByAll(online []*node, rows []int32, key string, h uint32) bool {
	for _, t := range rows {
		if _, ref := online[t].data.find(key, h); ref < 0 {
			return false
		}
	}
	return true
}

// sweep finds every online holder of each key in one pass per node: each
// key's index hash is computed once, then the online nodes, in parallel,
// answer all the keys, node r into row r of the returned bit matrix (words
// words per row; bit i is keys[i]). Stores are read without locks: planHeal
// holds every online node's.
func (v *healView) sweep(keys []healKey) (held []uint64, words int) {
	for i := range keys {
		keys[i].h = hashKey(keys[i].key)
	}
	words = (len(keys) + 63) / 64
	held = make([]uint64, words*len(v.online))
	_, _ = parallel.Map(0, v.online, func(r int, n *node) (struct{}, error) {
		row := held[r*words : (r+1)*words]
		for i := range keys {
			if _, ref := n.data.find(keys[i].key, keys[i].h); ref >= 0 {
				row[i/64] |= 1 << (i % 64)
			}
		}
		return struct{}{}, nil
	})
	return held, words
}

// healPlan is one heal pass's plan, built once and sized before it is
// filled: the under-replicated keys, every copy to push in key-major order
// (the per-key execution order), and the same pushes' keys laid out pair by
// pair, the pairs in the order they first appear key-major (the batched
// execution order). view, its proofs filled in, becomes the DHT's heal memo
// if every push lands.
type healPlan struct {
	view    *healView
	scanned int        // distinct keys online nodes hold
	keys    []healKey  // in key order
	pushes  []healPush // key-major
	pairs   []healPair // first-appearance order
	byPair  []int32    // key indices; pairs[p] owns byPair[lo:hi]
}

// healKey is one under-replicated key and its source: the lowest-ring-id
// online holder's copy (the log's own bytes: immutable, and the target's
// put copies), the ring-id top bits that copy is filed under, and the
// key's index hash (hashKey) and ring segment.
type healKey struct {
	key   string
	top   uint32
	h     uint32
	seg   int
	value []byte
	src   *node
}

// healPush is one copy to make: a key index and a pair index.
type healPush struct{ key, pair int32 }

// healPair is one (holder, target) pair and its run of byPair.
type healPair struct {
	src, dst *node
	lo, hi   int
}

// planHeal finds every under-replicated key and plans its pushes, in key
// order: the lowest-ring-id online holder pushes to each online target
// missing a copy, in target order. Node-local, free of network cost. Its
// allocations are per node and per pair, never per key.
func (d *DHT) planHeal() healPlan {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.healViewLocked()
	// Freeze the online stores for the pass (ring order; every other path
	// takes one node lock at a time, or holds d.mu as this one does), so the
	// per-node scans below are independent lock-free reads. Nothing reads a
	// store before its lock is held, the memo's generations included.
	for _, n := range v.online {
		n.mu.Lock()
	}
	defer func() {
		for _, n := range v.online {
			n.mu.Unlock()
		}
	}()
	memo, changed := v.reuse(d.healMemo)
	scans, _ := parallel.Map(0, v.online, func(r int, _ *node) (healScan, error) {
		return v.scan(r, memo, changed), nil
	})
	p := healPlan{view: v}
	v.proofs = make([]healProof, len(v.online))
	marked, probed := 0, 0
	for r, s := range scans {
		n := v.online[r]
		v.proofs[r] = healProof{n: n, records: n.data.len(), gen: n.data.gen, first: s.first}
		p.scanned += s.checked
		probed += s.probed
		marked += s.deficient.n + s.orphans.n
	}
	if t := d.tel.Load(); t != nil {
		t.healCopies.Add(int64(probed))
	}
	if marked == 0 {
		return p
	}

	// The reported keys: each deficient key once (its checker's), then the
	// orphans, deduplicated (several strays may hold one), then all sorted
	// for a deterministic pass order.
	keys := make([]healKey, 0, marked)
	collect := func(i int, m *marks) {
		m.each(func(r int) {
			key, _ := v.online[i].data.record(r)
			keys = append(keys, healKey{key: key})
		})
	}
	for i := range scans {
		collect(i, &scans[i].deficient)
	}
	deficient := len(keys)
	for i := range scans {
		collect(i, &scans[i].orphans)
	}
	byKey := func(a, b healKey) int { return strings.Compare(a.key, b.key) }
	orphans := keys[deficient:]
	slices.SortFunc(orphans, byKey)
	orphans = slices.CompactFunc(orphans, func(a, b healKey) bool { return a.key == b.key })
	p.scanned += len(orphans)
	p.keys = keys[:deficient+len(orphans)]
	slices.SortFunc(p.keys, byKey)
	held, words := v.sweep(p.keys)
	has := func(r int32, ki int) bool { return held[int(r)*words+ki/64]&(1<<(ki%64)) != 0 }
	for ki := range p.keys {
		k := &p.keys[ki]
		for r, n := range v.online {
			if has(int32(r), ki) {
				k.src = n
				k.value, k.top, _ = n.data.lookup(k.key, k.h)
				break
			}
		}
		k.seg = v.segment(k.key, k.top)
	}

	// Count every push per pair, numbering the pairs as they first appear;
	// then lay the pushes out, key-major and pair by pair.
	type pairCount struct{ idx, n int }
	pairOf := make(map[[2]*node]pairCount)
	missing := func(fn func(ki int, pk [2]*node)) {
		for ki := range p.keys {
			k := &p.keys[ki]
			for _, t := range v.targets[k.seg] {
				if !has(t, ki) {
					fn(ki, [2]*node{k.src, v.online[t]})
				}
			}
		}
	}
	missing(func(_ int, pk [2]*node) {
		c, seen := pairOf[pk]
		if !seen {
			c.idx = len(pairOf)
		}
		c.n++
		pairOf[pk] = c
	})
	p.pairs = make([]healPair, len(pairOf))
	for pk, c := range pairOf {
		p.pairs[c.idx] = healPair{src: pk[0], dst: pk[1], hi: c.n}
	}
	total := 0
	for i := range p.pairs {
		n := p.pairs[i].hi
		p.pairs[i].lo, p.pairs[i].hi = total, total // hi is now the fill cursor
		total += n
	}
	p.pushes = make([]healPush, 0, total)
	p.byPair = make([]int32, total)
	missing(func(ki int, pk [2]*node) {
		pi := pairOf[pk].idx
		p.pushes = append(p.pushes, healPush{key: int32(ki), pair: int32(pi)})
		pair := &p.pairs[pi]
		p.byPair[pair.hi] = int32(ki)
		pair.hi++
	})
	return p
}

// HealSpan implements overlay.SpanHealer: Heal with each re-replication
// push attributed to a "repair" child span of sp (nil sp: identical
// untraced pass).
func (d *DHT) HealSpan(sp *telemetry.Span) (overlay.HealReport, error) {
	p := d.planHeal()
	tr := &simnet.Trace{}
	report := overlay.HealReport{KeysScanned: p.scanned}
	failed := make([]bool, len(p.keys)) // a key some push of failed

	// The plan is either executed per key (PerKeyHeal: one store RPC per
	// push, the measured baseline) or per (holder, target) pair as one
	// store_batch envelope — one message pair moves every key that pair
	// shares. A dropped push or envelope leaves its keys for the next pass
	// rather than failing the whole heal. One frame carries every push of
	// the pass, one RPC at a time.
	f := borrowFrame()
	defer returnFrame(f)
	if d.perKeyHeal {
		for _, push := range p.pushes {
			k, pair := &p.keys[push.key], &p.pairs[push.pair]
			f.tr = simnet.Trace{}
			f.store = storeReq{Key: k.key, Top: k.top, Value: k.value}
			psp := sp.Child("repair")
			psp.Tag("key", k.key)
			psp.Tag("to", string(pair.dst.name))
			_, err := d.net.RPC(&f.tr, pair.src.name, pair.dst.name, simnet.Message{
				Kind:    kindStore,
				Payload: &f.store,
				Size:    len(k.key) + len(k.value),
			})
			tr.Add(&f.tr)
			psp.AddLatency(f.tr.Latency)
			psp.End(spanOutcome(err))
			if err == nil {
				report.Repaired++
			} else {
				failed[push.key] = true
			}
		}
	} else {
		req := &f.storeBatch
		for _, pair := range p.pairs {
			run := p.byPair[pair.lo:pair.hi]
			req.reset()
			for _, ki := range run {
				k := &p.keys[ki]
				req.Keys = append(req.Keys, k.key)
				req.Tops = append(req.Tops, k.top)
				req.Values = append(req.Values, k.value)
			}
			f.tr = simnet.Trace{}
			psp := sp.Child("repair")
			if psp != nil {
				psp.Tag("to", string(pair.dst.name))
				psp.Tag("keys", strconv.Itoa(len(run)))
			}
			_, err := d.net.RPC(&f.tr, pair.src.name, pair.dst.name, req.message())
			tr.Add(&f.tr)
			psp.AddLatency(f.tr.Latency)
			psp.End(spanOutcome(err))
			if err == nil {
				report.Repaired += len(run)
			} else {
				for _, ki := range run {
					failed[ki] = true
				}
			}
		}
	}
	for _, bad := range failed {
		if bad {
			report.Unrepairable++
		}
	}
	report.Stats = *tr
	if report.Repaired > 0 {
		// Copies moved: memoized routes may predate the repaired layout.
		d.bumpRoutes()
	}
	// Only a pass whose every push landed proved its keys fully replicated;
	// a failed one only added copies, so the previous memo still holds.
	if report.Unrepairable == 0 {
		d.mu.Lock()
		d.healMemo = p.view
		d.mu.Unlock()
	}
	return report, nil
}
