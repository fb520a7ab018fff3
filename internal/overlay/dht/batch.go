package dht

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/parallel"
)

// This file implements overlay.BatchKV: multi-key Put/Get with route-grouped
// fan-out. Three amortizations make a batch cheaper than a key-by-key loop:
//
//  1. Routing passes are shared. Keys are resolved learned segment → walk
//     (routecache.go); batches never touch the route cache. A walk proves
//     its root R's whole Chord segment (pred(R), R]: the node whose answer
//     ends it is R's predecessor. It teaches the ownership cache
//     (ownership.go) that segment, so every other kid R owns resolves
//     without another walk, in this batch, in later ones and in single-key
//     operations: one walk per root. Once every live root has been walked
//     to, cold keys resolve without routing at all.
//  2. Request envelopes are shared. A put sends each replica node ONE
//     message with the keys of every group it holds; a get sends each probed
//     replica one message per group. Neither cost scales with the keys.
//  3. Allocations are per batch, not per envelope or key, and the plan is
//     built in linear time. A batch borrows one operation frame (opFrame,
//     dht.go) for its routing walks and its plan — per-key roots, every
//     routed position bucketed by its root's ring index in one stable
//     counting pass, each group a sub-slice, a put's destination runs
//     bucketed the same way by node — and each destination node (put) or
//     group (get) borrows one for its envelope, so concurrent envelopes
//     never share one. An incoming envelope's keys and values are copied
//     straight into the node's record log (store.go), and its keys are
//     probed in blocks of up to 32: the handler hashes a block and loads
//     each key's home index slot before it puts or looks up any, so the
//     block's cache misses on an index far larger than the cache overlap
//     instead of being taken one after another. An outgoing reply's values
//     are copied into one fresh backing array per probe, because they leave
//     the DHT. Lifetime rules are in DESIGN.md §10: log bytes are immutable
//     once written, whatever leaves a node is a copy, and a pooled frame
//     never outlives the operation that borrowed it (simnet RPCs are
//     synchronous, so reuse after return is safe).
//
// Cost model (the batch determinism contract): a batch is one logical
// operation whose destination envelopes (put) or per-root probe chains
// (get) proceed as independent concurrent pipelines. Messages, bytes, and
// hops always sum; simulated latency charges the slowest. The model is
// independent of Config.FanoutWorkers — the worker count changes
// wall-clock only — so batch stats and results are byte-identical at any
// parallelism level.
//
// Per-key fault isolation: routing failures, unreachable replica groups,
// and misses are reported in the affected slots only; a batch never fails
// as a whole because one key's replica set is down.

var _ overlay.BatchKV = (*DHT)(nil)

// Batch RPC message kinds.
const (
	kindStoreBatch = "dht.store_batch"
	kindFetchBatch = "dht.fetch_batch"
)

// Batch payloads travel as pointers into the sender's frame, like the
// single-key ones (dht.go).

// storeBatchReq carries every key the destination replica holds for this
// batch, in one envelope, each with its ring-id top bits (Tops[i], as in
// storeReq: not counted in the envelope's size).
type storeBatchReq struct {
	Keys   []string
	Tops   []uint32
	Values [][]byte
}

// fetchBatchReq carries the keys to read and the slot the handler answers in.
type fetchBatchReq struct {
	Keys  []string
	reply fetchBatchResp
}

// fetchBatchResp answers positionally: Found[i]/Values[i] correspond to
// req.Keys[i]. The headers are the request's slot; the value bytes are the
// handler's fresh copy.
type fetchBatchResp struct {
	Found  []bool
	Values [][]byte
}

// message is the store_batch envelope carrying r, sized as its framing plus
// each item's key, value and length prefix.
func (r *storeBatchReq) message() simnet.Message {
	size := batchEnvelopeOverhead
	for i, key := range r.Keys {
		size += len(key) + len(r.Values[i]) + batchItemOverhead
	}
	return simnet.Message{Kind: kindStoreBatch, Payload: r, Size: size}
}

// message is the fetch_batch envelope carrying r, sized as its framing plus
// each key and its length prefix.
func (r *fetchBatchReq) message() simnet.Message {
	size := batchEnvelopeOverhead
	for _, key := range r.Keys {
		size += len(key) + batchItemOverhead
	}
	return simnet.Message{Kind: kindFetchBatch, Payload: r, Size: size}
}

// reset empties the request for refilling, keeping its arrays but none of
// what they referenced.
func (r *storeBatchReq) reset() {
	clear(r.Keys)
	clear(r.Values)
	r.Keys, r.Tops, r.Values = r.Keys[:0], r.Tops[:0], r.Values[:0]
}

// reset empties the request and its reply slot for refilling, keeping their
// arrays but none of what they referenced.
func (r *fetchBatchReq) reset() {
	clear(r.Keys)
	clear(r.reply.Values)
	r.Keys, r.reply.Found, r.reply.Values = r.Keys[:0], r.reply.Found[:0], r.reply.Values[:0]
}

// errBadFetchBatchReply rejects a fetch_batch reply of the wrong shape.
var errBadFetchBatchReply = errors.New("dht: bad fetch_batch reply")

// batchEnvelopeOverhead models the fixed framing of a batch envelope, and
// batchItemOverhead the per-item length prefix, for wire-size accounting.
const (
	batchEnvelopeOverhead = 8
	batchItemOverhead     = 4
)

// handleStoreBatch executes the replica-side batch write: the store's
// putEach copies each key and value into the node's log, probing the index a
// block of keys ahead, so the envelope's slices stay the sender's.
func handleStoreBatch(n *node, req *storeBatchReq) (simnet.Message, error) {
	if len(req.Keys) != len(req.Values) || len(req.Keys) != len(req.Tops) {
		return simnet.Message{}, fmt.Errorf("dht: store_batch: %d keys, %d ring ids, %d values", len(req.Keys), len(req.Tops), len(req.Values))
	}
	n.mu.Lock()
	n.data.putEach(req.Keys, req.Tops, req.Values)
	n.mu.Unlock()
	return simnet.Message{Kind: kindStoreBatch, Size: batchEnvelopeOverhead}, nil
}

// handleFetchBatch executes the replica-side batch read into the request's
// slot, answered positionally. Each key is resolved once, under the lock,
// with the index probed a block of keys ahead (getEach); the found values
// are then copied out of the log into one arena allocation after it is
// released (log bytes never change).
func handleFetchBatch(n *node, req *fetchBatchReq) (simnet.Message, error) {
	resp := &req.reply
	resp.Found = slices.Grow(resp.Found[:0], len(req.Keys))
	resp.Values = slices.Grow(resp.Values[:0], len(req.Keys))
	n.mu.Lock()
	resp.Found, resp.Values = n.data.getEach(req.Keys, resp.Found, resp.Values)
	n.mu.Unlock()
	total := 0
	for _, v := range resp.Values {
		total += len(v)
	}
	arena := make([]byte, 0, total)
	for i, v := range resp.Values {
		if resp.Found[i] {
			off := len(arena)
			arena = append(arena, v...)
			// Three-index slice: a later append through one key's view can
			// never clobber a neighbour's bytes.
			resp.Values[i] = arena[off:len(arena):len(arena)]
		}
	}
	return simnet.Message{Kind: kindFetchBatch, Payload: resp, Size: batchEnvelopeOverhead + len(req.Keys) + total}, nil
}

// batchPlan is a batch's routing and grouping state, kept in the batch's
// frame: each key's ring-id top bits (which a put's envelopes carry), root
// or routing failure, every routed position in root order with each group
// a sub-slice of it, and a put's destination runs (destinations). acks
// holds a write's per-replica outcomes for writeErr: a put's by slot, a
// Store's in placement order.
type batchPlan struct {
	tops   []uint32
	roots  []uint64
	errs   []error
	order  []int
	groups []batchGroup
	placed []destSlot // a put's slots in group order, before destinations buckets them
	slots  []destSlot
	dests  []batchDest
	acks   []error
	bucket []int // per position (group) or placed slot (destinations), its ring bucket
	counts []int // per ring bucket, its count, then its start
}

// batchGroup is one per-root work unit: the batch positions whose keys
// resolved to root, in input order, and, for PutBatch, the span of the
// plan's acks its replicas fill, or, for GetBatch, the group's network cost.
type batchGroup struct {
	root uint64
	idxs []int
	acks [2]int
	tr   simnet.Trace
}

// destSlot is one (group, replica) pair of a put and the index of its
// envelope's outcome in the plan's acks.
type destSlot struct {
	node       uint64
	group, ack int
}

// batchDest is one destination node's envelope: its slots, its cost and
// its delivery outcome.
type batchDest struct {
	node  uint64
	slots []destSlot
	tr    simnet.Trace
	err   error
}

// reset empties the plan for the next batch, keeping its arrays but none of
// the errors they referenced.
func (p *batchPlan) reset() {
	clear(p.errs)
	clear(p.groups)
	clear(p.dests)
	clear(p.acks)
	p.tops, p.roots, p.errs, p.order, p.groups = p.tops[:0], p.roots[:0], p.errs[:0], p.order[:0], p.groups[:0]
	p.placed, p.slots, p.dests, p.acks = p.placed[:0], p.slots[:0], p.dests[:0], p.acks[:0]
	p.bucket, p.counts = p.bucket[:0], p.counts[:0]
}

// zeroed returns s resized to n zero elements, reusing its array when it is
// large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// batchRoots resolves every key's successor root into f's plan with one
// amortized pass: each walk's learned segment answers every other key of
// the batch that the walked root owns.
// Resolutions are modeled as concurrent pipelines (messages sum, latency
// charges the slowest walk). Per-key routing failures land in the plan's
// errs; the corresponding roots entry is invalid.
func (d *DHT) batchRoots(f *opFrame, origin simnet.NodeID, keys []string) (tr simnet.Trace) {
	p := &f.plan
	p.tops = zeroed(p.tops, len(keys))
	p.roots = zeroed(p.roots, len(keys))
	p.errs = zeroed(p.errs, len(keys))
	for i, key := range keys {
		// Every resolution of the batch starts on a zero trace; one a memo
		// answers leaves it zero.
		f.tr = simnet.Trace{}
		kid := d.keyID(key)
		p.tops[i] = idTop(kid)
		p.roots[i], p.errs[i] = d.resolveRoot(f, nil, origin, key, kid, true)
		addBranch(&tr, &f.tr)
	}
	return tr
}

// group buckets the successfully routed positions by root into groups in
// ring order, each group's positions in input order: the plan a sort by
// (root, position) builds, made in one stable counting pass. A position's
// bucket is the ring index its root searches to in ring (bucket b holds the
// roots in (ring[b-1], ring[b]], bucket len(ring) those past the last
// member), so a ring member's bucket holds its own positions only. A root
// that is no member (it left the ring under the batch) may share a bucket
// with another, so each bucket is then sorted stably by root: on one
// root's bucket, the only kind a live ring yields, that is one comparison
// per position and moves nothing.
func (p *batchPlan) group(ring []uint64) {
	p.bucket = zeroed(p.bucket, len(p.roots))
	starts := zeroed(p.counts, len(ring)+2) // the last bucket stays empty: the end
	for i, err := range p.errs {
		if err == nil {
			b, _ := slices.BinarySearch(ring, p.roots[i])
			p.bucket[i] = b
			starts[b]++
		}
	}
	bucketEnds(starts)
	p.order = zeroed(p.order, starts[len(starts)-1])
	for i := len(p.errs) - 1; i >= 0; i-- { // back to front: stable
		if p.errs[i] == nil {
			b := p.bucket[i]
			starts[b]--
			p.order[starts[b]] = i
		}
	}
	byRoot := func(x, y int) int { return cmp.Compare(p.roots[x], p.roots[y]) }
	for b := 0; b+1 < len(starts); b++ {
		if run := p.order[starts[b]:starts[b+1]]; len(run) > 1 {
			slices.SortStableFunc(run, byRoot)
		}
	}
	p.counts = starts
	for start := 0; start < len(p.order); {
		root := p.roots[p.order[start]]
		end := start + 1
		for end < len(p.order) && p.roots[p.order[end]] == root {
			end++
		}
		p.groups = append(p.groups, batchGroup{root: root, idxs: p.order[start:end:end]})
		start = end
	}
}

// bucketEnds turns per-bucket counts into each bucket's end offset (running
// sums). Placing items back to front, each at its bucket's decremented end,
// then sorts them stably and leaves each bucket's start offset behind; with
// one empty bucket last, bucket b ends where b+1 starts.
func bucketEnds(counts []int) {
	sum := 0
	for b, c := range counts {
		sum += c
		counts[b] = sum
	}
}

// addBranch charges one concurrent branch of a batch to tr: counts sum,
// and the latency is the slowest branch's.
func addBranch(tr, branch *simnet.Trace) {
	tr.Hops += branch.Hops
	tr.Messages += branch.Messages
	tr.Bytes += branch.Bytes
	tr.Latency = max(tr.Latency, branch.Latency)
}

// mergeBranches charges a batch's concurrent envelopes to tr after its
// routing: counts sum, and the slowest envelope's latency adds to tr's.
func mergeBranches[T any](tr *simnet.Trace, items []T, trace func(*T) *simnet.Trace) {
	var par simnet.Trace
	for i := range items {
		addBranch(&par, trace(&items[i]))
	}
	tr.Add(&par)
}

// PutBatch implements overlay.BatchKV. Every key is written to its full
// replica set; keys sharing a root share one routing pass, and each replica
// node gets one store envelope with the keys of every group it holds. A
// key's outcome is its group's, under Store's rule (writeErr) over the
// outcomes of the envelopes the group's replicas were sent, in placement
// order; a group acked short names its keys to the short-write hook from
// the same outcomes.
func (d *DHT) PutBatch(origin string, keys []string, values [][]byte) ([]error, overlay.OpStats, error) {
	if len(keys) != len(values) {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: PutBatch: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil, overlay.OpStats{}, nil
	}
	if d.view().names[simnet.NodeID(origin)] == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	f := borrowFrame()
	defer returnFrame(f)
	p := &f.plan
	tr := d.batchRoots(f, simnet.NodeID(origin), keys)
	v := d.view()
	p.group(v.ring)
	p.destinations(v, d.replica, &f.ids)
	_ = parallel.ForEach(d.fanout, p.dests, func(i int, _ batchDest) error {
		d.putDest(simnet.NodeID(origin), v, p, &p.dests[i], keys, values)
		return nil
	})
	mergeBranches(&tr, p.dests, func(dst *batchDest) *simnet.Trace { return &dst.tr })
	for _, dst := range p.dests {
		for _, s := range dst.slots {
			p.acks[s.ack] = dst.err
		}
	}
	errs := slices.Clone(p.errs) // the caller's, not the frame's
	for _, g := range p.groups {
		acks := p.acks[g.acks[0]:g.acks[1]]
		err := writeErr("batch store", acks)
		short := err == nil && d.short != nil && missedAny(acks)
		for _, idx := range g.idxs {
			switch {
			case err != nil:
				errs[idx] = err
			case short:
				d.short(keys[idx])
			}
		}
	}
	return errs, tr, nil
}

// destinations inverts the groups' placements into one run per node, the
// runs in ring order. Every (group, replica) pair is a slot, and a group's
// slots own its span of acks in placement order. The slots are bucketed by
// their node's ring index in one stable counting pass, which keeps a node's
// groups in ring order: the order a sort by (node, group) gives. Placement
// names each ring member at most once per group, so a bucket is one node's.
func (p *batchPlan) destinations(v *ringView, k int, ids *replicaIDs) {
	p.bucket = p.bucket[:0]
	starts := zeroed(p.counts, len(v.ring)+1) // the last bucket stays empty: the end
	for gi := range p.groups {
		g := &p.groups[gi]
		g.acks[0] = len(p.placed)
		for _, rid := range v.placementOf(ids[:0], g.root, k) {
			b, _ := slices.BinarySearch(v.ring, rid)
			p.placed = append(p.placed, destSlot{node: rid, group: gi, ack: len(p.placed)})
			p.bucket = append(p.bucket, b)
			starts[b]++
		}
		g.acks[1] = len(p.placed)
	}
	p.acks = zeroed(p.acks, len(p.placed))
	p.slots = zeroed(p.slots, len(p.placed))
	bucketEnds(starts)
	for i := len(p.placed) - 1; i >= 0; i-- {
		b := p.bucket[i]
		starts[b]--
		p.slots[starts[b]] = p.placed[i]
	}
	p.counts = starts
	for b := 0; b+1 < len(starts); b++ {
		if start, end := starts[b], starts[b+1]; start < end {
			p.dests = append(p.dests, batchDest{node: v.ring[b], slots: p.slots[start:end:end]})
		}
	}
}

// putDest sends one node its envelope: each group's keys in input order, so
// a key repeated in the batch lands last-write-wins.
func (d *DHT) putDest(origin simnet.NodeID, v *ringView, p *batchPlan, dst *batchDest, keys []string, values [][]byte) {
	f := borrowFrame()
	defer returnFrame(f)
	req := &f.storeBatch
	for _, s := range dst.slots {
		for _, idx := range p.groups[s.group].idxs {
			req.Keys = append(req.Keys, keys[idx])
			req.Tops = append(req.Tops, p.tops[idx])
			req.Values = append(req.Values, values[idx])
		}
	}
	_, dst.err = d.net.RPC(&dst.tr, origin, v.byID[dst.node].name, req.message())
}

// GetBatch implements overlay.BatchKV. Keys sharing a root share one fetch
// envelope; within a group, replicas are probed in ring order and only the
// keys still unresolved ride in the next probe (the pipelined fallback), so
// a replica failure or miss costs exactly one follow-up envelope for the
// affected keys — never a per-key walk and never the whole batch.
func (d *DHT) GetBatch(origin string, keys []string) ([]overlay.BatchResult, overlay.OpStats, error) {
	if len(keys) == 0 {
		return nil, overlay.OpStats{}, nil
	}
	if d.view().names[simnet.NodeID(origin)] == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	f := borrowFrame()
	defer returnFrame(f)
	p := &f.plan
	tr := d.batchRoots(f, simnet.NodeID(origin), keys)
	results := make([]overlay.BatchResult, len(keys))
	for i, err := range p.errs {
		results[i].Err = err
	}
	p.group(d.view().ring)
	// Groups own disjoint positions, so each writes its results in place.
	_ = parallel.ForEach(d.fanout, p.groups, func(i int, _ batchGroup) error {
		d.getGroup(simnet.NodeID(origin), &p.groups[i], keys, results)
		return nil
	})
	mergeBranches(&tr, p.groups, func(g *batchGroup) *simnet.Trace { return &g.tr })
	return results, tr, nil
}

// getGroup reads one root group's keys into results: replicas in ring
// order, one shared envelope per probe carrying only the still-unresolved
// keys. Within the group the probe chain is serial (each fallback needs the
// previous reply), so latency sums across probes. Every key still pending
// after a probe shares that probe's fault — the delivery error, a bad reply,
// or a miss — so one error stands for all of them.
func (d *DHT) getGroup(origin simnet.NodeID, g *batchGroup, keys []string, results []overlay.BatchResult) {
	f := borrowFrame()
	defer returnFrame(f)
	v := d.view()
	replicas := v.successorsOf(f.ids[:0], g.root, d.replica)
	req := &f.fetchBatch
	// The group's positions are compacted in place as keys resolve: the
	// group owns them, and nothing reads them after the group is done.
	pending := g.idxs
	var lastErr error = overlay.ErrUnavailable
	for _, rid := range replicas {
		if len(pending) == 0 {
			break
		}
		req.reset()
		for _, idx := range pending {
			req.Keys = append(req.Keys, keys[idx])
		}
		f.tr = simnet.Trace{}
		reply, err := d.net.RPC(&f.tr, origin, v.byID[rid].name, req.message())
		g.tr.Add(&f.tr)
		if err != nil {
			// The whole envelope failed to this replica: every pending key
			// records the fault and rides to the next replica.
			lastErr = err
			continue
		}
		resp, ok := reply.Payload.(*fetchBatchResp)
		if !ok || resp == nil || len(resp.Found) != len(pending) || len(resp.Values) != len(pending) {
			lastErr = errBadFetchBatchReply
			continue
		}
		next := pending[:0]
		for j, idx := range pending {
			if resp.Found[j] {
				results[idx].Value = resp.Values[j]
			} else {
				next = append(next, idx)
			}
		}
		pending, lastErr = next, overlay.ErrNotFound
	}
	for _, idx := range pending {
		results[idx].Err = lastErr
	}
}
