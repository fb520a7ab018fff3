package dht

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/parallel"
)

// This file implements overlay.BatchKV: multi-key Put/Get with route-grouped
// fan-out. Three amortizations make a batch cheaper than a key-by-key loop:
//
//  1. Routing passes are shared. Pending keys are sorted by ring position;
//     after one iterative lookup resolves kid → root R, every following kid
//     in (kid, R] is owned by the same successor (Chord ownership is the
//     half-open interval (pred(R), R]), so it is resolved locally without
//     another walk. The route cache is consulted first, so hot keys skip
//     even that, and intervals learned by earlier batches are kept in the
//     ownership cache (ownership.go) — once every live root has been walked
//     to, cold keys resolve without routing at all.
//  2. Request envelopes are shared. All keys resolving to the same root
//     travel to each replica in ONE message instead of one per key, so the
//     message cost of a batch scales with the number of replica groups
//     touched, not the number of keys.
//  3. Value copies are shared allocations. An incoming envelope's keys and
//     values are copied straight into the node's record log (store.go) with
//     no allocation per key; an outgoing reply's values are copied into a
//     single backing array; and envelope key lists are drawn from a
//     sync.Pool that recycles them across replica probes (lifetime rules in
//     DESIGN.md §10: log bytes are immutable once written and whatever
//     leaves a node is a copy; pooled buffers never outlive the RPC that
//     borrowed them — simnet RPCs are synchronous, so reuse after return is
//     safe).
//
// Cost model (the batch determinism contract): a batch is one logical
// operation whose per-root groups proceed as independent concurrent
// pipelines. Messages, bytes, and hops always sum; simulated latency
// charges the slowest group (and, within a group, the serial chain of
// replica probes). The model is independent of Config.FanoutWorkers — the
// worker count changes wall-clock only — so batch stats and results are
// byte-identical at any parallelism level.
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

// storeBatchReq carries every key the destination replica holds for this
// batch, in one envelope.
type storeBatchReq struct {
	Keys   []string
	Values [][]byte
}

type fetchBatchReq struct{ Keys []string }

// fetchBatchResp answers positionally: Found[i]/Values[i] correspond to
// req.Keys[i].
type fetchBatchResp struct {
	Found  []bool
	Values [][]byte
}

// batchEnvelopeOverhead models the fixed framing of a batch envelope, and
// batchItemOverhead the per-item length prefix, for wire-size accounting.
const (
	batchEnvelopeOverhead = 8
	batchItemOverhead     = 4
)

// keyListPool recycles envelope key lists across replica probes and groups.
// Borrowed slices are returned as soon as the last RPC using them has
// completed; they never escape into handler or reply state (handlers copy
// what they keep).
var keyListPool = sync.Pool{New: func() any { s := make([]string, 0, 64); return &s }}

func borrowKeyList() *[]string { return keyListPool.Get().(*[]string) }

func returnKeyList(s *[]string) {
	*s = (*s)[:0]
	keyListPool.Put(s)
}

// handleStoreBatch executes the replica-side batch write: the store's put
// copies each key and value into the node's log, so the envelope's slices
// stay the sender's.
func handleStoreBatch(n *node, req storeBatchReq) (simnet.Message, error) {
	if len(req.Keys) != len(req.Values) {
		return simnet.Message{}, fmt.Errorf("dht: store_batch: %d keys, %d values", len(req.Keys), len(req.Values))
	}
	n.mu.Lock()
	for i, key := range req.Keys {
		n.data.put(key, req.Values[i])
	}
	n.mu.Unlock()
	return simnet.Message{Kind: kindStoreBatch, Size: batchEnvelopeOverhead}, nil
}

// handleFetchBatch executes the replica-side batch read, answered
// positionally. Each key is resolved once, under the lock; the found values
// are then copied out of the log into one arena allocation after it is
// released (log bytes never change).
func handleFetchBatch(n *node, req fetchBatchReq) (simnet.Message, error) {
	resp := fetchBatchResp{
		Found:  make([]bool, len(req.Keys)),
		Values: make([][]byte, len(req.Keys)),
	}
	total := 0
	n.mu.Lock()
	for i, key := range req.Keys {
		resp.Values[i], resp.Found[i] = n.data.get(key)
		total += len(resp.Values[i])
	}
	n.mu.Unlock()
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

// batchRoots resolves every key's successor root with one amortized pass:
// route-cache hits are free; misses are sorted by ring position and each
// iterative lookup's result covers every following key inside the resolved
// successor's ownership interval. Resolutions are modeled as concurrent
// pipelines (messages sum, latency charges the slowest walk). Per-key
// routing failures land in errs; the corresponding roots entry is invalid.
func (d *DHT) batchRoots(origin simnet.NodeID, keys []string) (roots []uint64, errs []error, tr simnet.Trace) {
	roots = make([]uint64, len(keys))
	errs = make([]error, len(keys))
	type pend struct {
		idx int
		kid uint64
	}
	pending := make([]pend, 0, len(keys))
	for i, key := range keys {
		if root, ok := d.routes.Get(key); ok {
			roots[i] = root
			continue
		}
		pending = append(pending, pend{idx: i, kid: hashID(key)})
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].kid < pending[b].kid })
	// One frame serves every walk of the batch; each starts on a zero trace.
	f := borrowFrame()
	defer returnFrame(f)
	var (
		lastKid, lastRoot uint64
		haveLast          bool
		maxLat            time.Duration
	)
	for _, p := range pending {
		// Ownership shortcut: kid == lastKid is the same point; otherwise a
		// kid strictly inside (lastKid, lastRoot] shares lastRoot. The
		// lastKid == lastRoot corner (key hashing exactly onto the root)
		// would make the interval the whole ring, so only equality applies.
		if haveLast && (p.kid == lastKid || (lastKid != lastRoot && inInterval(p.kid, lastKid, lastRoot))) {
			roots[p.idx] = lastRoot
			d.routes.Put(keys[p.idx], lastRoot)
			continue
		}
		// Cross-batch shortcut: an interval learned by any earlier walk
		// (this batch or a previous one) resolves the key without routing.
		if root, ok := d.ownership.lookup(p.kid); ok {
			roots[p.idx] = root
			d.routes.Put(keys[p.idx], root)
			lastKid, lastRoot, haveLast = p.kid, root, true
			continue
		}
		f.tr = simnet.Trace{}
		rtr := &f.tr
		root, err := d.findSuccessor(f, origin, p.kid)
		tr.Hops += rtr.Hops
		tr.Messages += rtr.Messages
		tr.Bytes += rtr.Bytes
		if rtr.Latency > maxLat {
			maxLat = rtr.Latency
		}
		if err != nil {
			errs[p.idx] = err
			continue
		}
		roots[p.idx] = root
		d.routes.Put(keys[p.idx], root)
		d.ownership.learn(p.kid, root)
		lastKid, lastRoot, haveLast = p.kid, root, true
	}
	tr.Latency = maxLat
	return roots, errs, tr
}

// batchGroup is one per-root work unit: the batch positions whose keys
// resolved to the same successor root, in input order.
type batchGroup struct {
	root uint64
	idxs []int
}

// groupByRoot buckets successfully routed keys by root, ordered by ring
// position — a deterministic work list for the group fan-out.
func groupByRoot(roots []uint64, errs []error) []batchGroup {
	byRoot := make(map[uint64]*batchGroup)
	order := make([]uint64, 0, 8)
	for i := range roots {
		if errs[i] != nil {
			continue
		}
		g := byRoot[roots[i]]
		if g == nil {
			g = &batchGroup{root: roots[i]}
			byRoot[roots[i]] = g
			order = append(order, roots[i])
		}
		g.idxs = append(g.idxs, i)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	out := make([]batchGroup, len(order))
	for i, root := range order {
		out[i] = *byRoot[root]
	}
	return out
}

// groupOutcome is one group's merged result: its network trace plus either
// a shared error (Put: the envelope is all-or-nothing per replica) or
// per-position results (Get).
type groupOutcome struct {
	tr   simnet.Trace
	err  error          // PutBatch: applies to every key in the group
	errs map[int]error  // GetBatch: per-position failures
	vals map[int][]byte // GetBatch: per-position values
}

// mergeGroupOutcomes folds per-group traces into the batch trace under the
// pipelined cost model: counts sum, latency charges the slowest group.
func mergeGroupOutcomes(tr *simnet.Trace, outcomes []groupOutcome) {
	var maxLat time.Duration
	for _, o := range outcomes {
		tr.Hops += o.tr.Hops
		tr.Messages += o.tr.Messages
		tr.Bytes += o.tr.Bytes
		if o.tr.Latency > maxLat {
			maxLat = o.tr.Latency
		}
	}
	tr.Latency += maxLat
}

// PutBatch implements overlay.BatchKV. Every key is written to its full
// replica set; keys sharing a root share one routing pass and one store
// envelope per replica. A key's slot reports nil when at least one replica
// acknowledged (matching Store's success rule), an ack-lost wrap when the
// write may have landed unacked, and the delivery fault otherwise.
func (d *DHT) PutBatch(origin string, keys []string, values [][]byte) ([]error, overlay.OpStats, error) {
	if len(keys) != len(values) {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: PutBatch: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil, overlay.OpStats{}, nil
	}
	known := d.view().names[simnet.NodeID(origin)] != nil
	if !known {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	roots, errs, rtr := d.batchRoots(simnet.NodeID(origin), keys)
	tr := &simnet.Trace{}
	tr.Add(&rtr)
	groups := groupByRoot(roots, errs)
	outcomes, _ := parallel.Map(d.fanout, groups, func(_ int, g batchGroup) (groupOutcome, error) {
		return d.putGroup(simnet.NodeID(origin), g, keys, values), nil
	})
	mergeGroupOutcomes(tr, outcomes)
	for gi, o := range outcomes {
		if o.err != nil {
			for _, idx := range groups[gi].idxs {
				errs[idx] = o.err
			}
		}
	}
	return errs, *tr, nil
}

// putGroup writes one root group's keys to the group's replica set: one
// shared envelope per replica, replicas contacted as concurrent branches
// (latency charges the slowest). Success and ack-lost semantics mirror
// Store: one acknowledged replica suffices; with none, a lost ack is
// surfaced as possibly-applied.
func (d *DHT) putGroup(origin simnet.NodeID, g batchGroup, keys []string, values [][]byte) groupOutcome {
	req := storeBatchReq{
		Keys:   make([]string, len(g.idxs)),
		Values: make([][]byte, len(g.idxs)),
	}
	size := batchEnvelopeOverhead
	for i, idx := range g.idxs {
		req.Keys[i] = keys[idx]
		req.Values[i] = values[idx]
		size += len(keys[idx]) + len(values[idx]) + batchItemOverhead
	}
	v := d.view()
	var ids replicaIDs
	replicas := v.placementOf(ids[:0], g.root, d.replica)
	out := groupOutcome{}
	var (
		stored  int
		lastErr error
		ackLost error
		maxLat  time.Duration
	)
	for _, rid := range replicas {
		rn := v.byID[rid]
		rtr := &simnet.Trace{}
		_, err := d.net.RPC(rtr, origin, rn.name, simnet.Message{
			Kind:    kindStoreBatch,
			Payload: req,
			Size:    size,
		})
		out.tr.Hops += rtr.Hops
		out.tr.Messages += rtr.Messages
		out.tr.Bytes += rtr.Bytes
		if rtr.Latency > maxLat {
			maxLat = rtr.Latency
		}
		if err == nil {
			stored++
		} else {
			lastErr = err
			if ackLost == nil && errors.Is(err, simnet.ErrReplyLost) {
				ackLost = err
			}
		}
	}
	out.tr.Latency = maxLat
	if stored == 0 {
		switch {
		case ackLost != nil:
			out.err = fmt.Errorf("dht: batch store unacked, may have been applied: %w", ackLost)
		case lastErr != nil:
			out.err = fmt.Errorf("%w: %w", overlay.ErrUnavailable, lastErr)
		default:
			out.err = overlay.ErrUnavailable
		}
	}
	return out
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
	known := d.view().names[simnet.NodeID(origin)] != nil
	if !known {
		return nil, overlay.OpStats{}, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	results := make([]overlay.BatchResult, len(keys))
	roots, errs, rtr := d.batchRoots(simnet.NodeID(origin), keys)
	tr := &simnet.Trace{}
	tr.Add(&rtr)
	groups := groupByRoot(roots, errs)
	outcomes, _ := parallel.Map(d.fanout, groups, func(_ int, g batchGroup) (groupOutcome, error) {
		return d.getGroup(simnet.NodeID(origin), g, keys), nil
	})
	mergeGroupOutcomes(tr, outcomes)
	for i := range keys {
		if errs[i] != nil {
			results[i].Err = errs[i]
		}
	}
	for _, o := range outcomes {
		for idx, v := range o.vals {
			results[idx].Value = v
		}
		for idx, err := range o.errs {
			results[idx].Err = err
		}
	}
	return results, *tr, nil
}

// getGroup reads one root group's keys: replicas in ring order, one shared
// envelope per probe carrying only the still-unresolved keys. Within the
// group the probe chain is serial (each fallback needs the previous reply),
// so latency sums across probes; delivery failures and misses stay pinned
// to the keys that experienced them.
func (d *DHT) getGroup(origin simnet.NodeID, g batchGroup, keys []string) groupOutcome {
	v := d.view()
	var ids replicaIDs
	replicas := v.successorsOf(ids[:0], g.root, d.replica)
	out := groupOutcome{
		errs: make(map[int]error, len(g.idxs)),
		vals: make(map[int][]byte, len(g.idxs)),
	}
	pending := append([]int(nil), g.idxs...)
	lastErr := make(map[int]error, len(g.idxs))
	for _, idx := range pending {
		lastErr[idx] = overlay.ErrUnavailable
	}
	reqKeys := borrowKeyList()
	defer returnKeyList(reqKeys)
	for _, rid := range replicas {
		if len(pending) == 0 {
			break
		}
		rn := v.byID[rid]
		*reqKeys = (*reqKeys)[:0]
		size := batchEnvelopeOverhead
		for _, idx := range pending {
			*reqKeys = append(*reqKeys, keys[idx])
			size += len(keys[idx]) + batchItemOverhead
		}
		rtr := &simnet.Trace{}
		reply, err := d.net.RPC(rtr, origin, rn.name, simnet.Message{
			Kind:    kindFetchBatch,
			Payload: fetchBatchReq{Keys: *reqKeys},
			Size:    size,
		})
		out.tr.Hops += rtr.Hops
		out.tr.Messages += rtr.Messages
		out.tr.Bytes += rtr.Bytes
		out.tr.Latency += rtr.Latency
		if err != nil {
			// The whole envelope failed to this replica: every pending key
			// records the fault and rides to the next replica.
			for _, idx := range pending {
				lastErr[idx] = err
			}
			continue
		}
		resp, ok := reply.Payload.(fetchBatchResp)
		if !ok || len(resp.Found) != len(pending) || len(resp.Values) != len(pending) {
			for _, idx := range pending {
				lastErr[idx] = fmt.Errorf("dht: bad fetch_batch reply")
			}
			continue
		}
		next := pending[:0]
		for j, idx := range pending {
			if resp.Found[j] {
				out.vals[idx] = resp.Values[j]
			} else {
				lastErr[idx] = overlay.ErrNotFound
				next = append(next, idx)
			}
		}
		pending = next
	}
	for _, idx := range pending {
		out.errs[idx] = lastErr[idx]
	}
	return out
}
