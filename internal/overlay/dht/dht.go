// Package dht implements a Chord-style structured overlay with finger
// tables, successor-list replication, and iterative O(log n) lookups.
//
// The paper (Section II-B) notes that in structured DOSNs "queries will be
// resolved in a limited number of steps" and that "most of the recent DOSNs
// use structured organization and distributed hash tables (DHTs) for the
// lookup service" (PrPl, PeerSoN, Safebook, Cachet). This package is that
// lookup/storage substrate; experiment E6 measures its logarithmic hop
// growth against the other organizations.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/load"
	"godosn/internal/telemetry"
)

// ringBits is the identifier space size (2^64 ring).
const ringBits = 64

// hashID maps a string to a point on the ring.
func hashID(s string) uint64 {
	h := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(h[:8])
}

// keyID is a key's ring id: hashID, counted in dht_key_hashes_total when
// telemetry is on. Every key hash goes through it; node ids do not.
func (d *DHT) keyID(key string) uint64 {
	if t := d.tel.Load(); t != nil {
		t.keyHashes.Inc()
	}
	return hashID(key)
}

// node is one DHT participant. Its routing state lives in the ringView.
type node struct {
	id   uint64
	name simnet.NodeID

	mu   sync.Mutex
	data store // store.go
}

// DHT is a Chord ring over a simnet. It is safe for concurrent use after
// Build.
type DHT struct {
	net        *simnet.Network
	replica    int
	fanout     int
	perKeyHeal bool

	mu   sync.Mutex               // serialises the writers of ring, and Heal's planning against them
	ring atomic.Pointer[ringView] // membership, fingers, filter, ranker (ring.go); read lock-free

	routes    *cache.Cache[uint64]             // key → successor root (routecache.go); nil = uncached
	ownership ownershipCache                   // learned successor segments (ownership.go)
	tel       atomic.Pointer[resolveTelemetry] // resolution counters (routecache.go); nil = off
	gates     *nodeGates                       // server-side admission (gate.go); nil = admit everything
	short     func(key string)                 // SetShortWriteHook; nil = no hints
	healMemo  *healView                        // the last clean heal pass's proof (repair.go); nil = none; under mu
}

var _ overlay.KV = (*DHT)(nil)

// Config parameterizes the DHT.
type Config struct {
	// ReplicationFactor is the number of successor replicas per key (>= 1).
	ReplicationFactor int
	// FanoutWorkers bounds the envelopes a batch has in flight (batch.go):
	// PutBatch's destination nodes, GetBatch's replica groups; 0 or 1 is
	// serial. It changes wall-clock only: every OpStats field is identical
	// at any worker count. Single-key Store/Lookup always contact replicas
	// one after another, and a Lookup stops at the first hit.
	FanoutWorkers int
	// RouteCache configures the single-key memo of key → successor root, a
	// cache.Cache keyed by the key string (routecache.go): Store, Lookup
	// and ReplicasFor consult it after the learned ownership segments,
	// which are always on, and fill it from their walks; batches never
	// touch it. The zero value (Capacity 0) disables it, preserving the
	// exact RPC and seeded-RNG sequence of an uncached DHT. A cache hit
	// skips the routing walk: fewer messages, and on a lossy network fewer
	// RNG draws — so seeded fault experiments comparing against uncached
	// baselines must assert invariants, not per-op equality.
	RouteCache cache.Config
	// NodeGate puts a server-side admission gate (gate.go) in front of
	// every node's data-plane RPCs (store/fetch and batch forms): requests
	// beyond the per-tick budget queue, then shed with load.ErrShed —
	// FaultOverload to the resilience layer, so callers retry elsewhere.
	// Routing and digest RPCs are exempt. Advance the gates with Tick
	// (overlay.Ticker). The zero value (PerTick 0) disables server-side
	// gating.
	NodeGate load.GateConfig
	// PerKeyHeal forces Heal to push every re-replicated copy in its own
	// store RPC (the pre-batching behavior) instead of coalescing pushes
	// per (holder, target) pair into store_batch envelopes — the measured
	// baseline for E26.
	PerKeyHeal bool
}

// New creates a DHT over the given nodes and builds routing state.
func New(net *simnet.Network, nodes []simnet.NodeID, cfg Config) (*DHT, error) {
	if len(nodes) == 0 {
		return nil, overlay.ErrNoNodes
	}
	if cfg.ReplicationFactor < 1 {
		cfg.ReplicationFactor = 1
	}
	if cfg.FanoutWorkers < 1 {
		cfg.FanoutWorkers = 1
	}
	d := &DHT{
		net:        net,
		replica:    cfg.ReplicationFactor,
		fanout:     cfg.FanoutWorkers,
		perKeyHeal: cfg.PerKeyHeal,
		routes:     cache.New[uint64](cfg.RouteCache),
		gates:      newNodeGates(cfg.NodeGate, nodes),
	}
	members := make([]*node, 0, len(nodes))
	taken := make(map[uint64]*node, len(nodes))
	for _, name := range nodes {
		n := &node{id: freeID(hashID(string(name)), taken), name: name}
		taken[n.id] = n
		members = append(members, n)
		if err := net.Register(name, d.handlerFor(n)); err != nil {
			return nil, fmt.Errorf("dht: registering %s: %w", name, err)
		}
		registerCrashHook(net, n)
	}
	d.ring.Store(newRingView(members, d.replica, nil, nil))
	return d, nil
}

// view returns the current ring snapshot.
func (d *DHT) view() *ringView { return d.ring.Load() }

// Name implements overlay.KV.
func (d *DHT) Name() string { return "structured-dht" }

// inInterval reports whether x lies in the half-open clockwise interval
// (a, b] on the ring.
func inInterval(x, a, b uint64) bool {
	if a < b {
		return x > a && x <= b
	}
	if a > b {
		return x > a || x <= b
	}
	return true // a == b: full circle
}

// RPC message kinds.
const (
	kindFindSuccessor = "dht.find_successor"
	kindStore         = "dht.store"
	kindFetch         = "dht.fetch"
)

// Single-key payloads travel as pointers. A request that has an answer
// carries the slot the handler writes it into, and the reply message points
// at that slot: the pointer is valid until the operation owning the request
// returns. Callers still read the answer from reply.Payload, never from the
// slot, so what a Byzantine responder substitutes is what they see; the
// substitute is a private copy (byzantine.go), never the slot itself.
type findSuccessorReq struct {
	Key   uint64
	reply findSuccessorResp
}
type findSuccessorResp struct {
	// Done reports the successor was found; otherwise Next is the closest
	// preceding node to continue the iterative lookup at.
	Done bool
	Node uint64
	Next uint64
}

// storeReq's Top is the top 32 bits of the key's ring id, which the node
// files the record under (store.go). The writer has the id already, from
// routing or from the copy it pushes; it is a function of Key, so it adds
// nothing to the message's declared Size.
type storeReq struct {
	Key   string
	Top   uint32
	Value []byte
}
type fetchReq struct {
	Key   string
	reply fetchResp
}
type fetchResp struct {
	Found bool
	Value []byte
}

// opFrame is everything one operation puts on the wire: its trace, one
// request of each kind (reused for every hop and every replica), and the
// replica ids it walks; a batch also keeps its plan here (batch.go). A
// single-key operation borrows a frame for its duration, and so do a batch
// and each node or group it sends envelopes to, so the message path
// allocates nothing of its own. On return the frame is zeroed, except that
// the batch requests and the plan keep their emptied arrays for the next
// borrower to append into.
// A value handed to the caller is the handler's copy, which the frame never
// references.
type opFrame struct {
	tr         simnet.Trace
	find       findSuccessorReq
	store      storeReq
	fetch      fetchReq
	storeBatch storeBatchReq
	fetchBatch fetchBatchReq
	ids        replicaIDs
	plan       batchPlan
}

var framePool = sync.Pool{New: func() any { return new(opFrame) }}

func borrowFrame() *opFrame { return framePool.Get().(*opFrame) }

func returnFrame(f *opFrame) {
	f.reset()
	framePool.Put(f)
}

// reset zeroes the frame in place: the per-operation fields field by
// field, the batch requests and the plan down to their emptied arrays.
func (f *opFrame) reset() {
	f.tr = simnet.Trace{}
	f.find = findSuccessorReq{}
	f.store = storeReq{}
	f.fetch = fetchReq{}
	f.ids = replicaIDs{}
	f.storeBatch.reset()
	f.fetchBatch.reset()
	f.plan.reset()
}

// handlerFor builds the simnet handler executing node-local RPC logic.
func (d *DHT) handlerFor(n *node) simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		switch msg.Kind {
		case kindStore, kindFetch, kindStoreBatch, kindFetchBatch:
			// Data-plane admission (gate.go): routing and digest kinds
			// stay exempt so congestion never masquerades as membership
			// loss.
			if err := d.gates.admit(n.name, tr); err != nil {
				return simnet.Message{}, err
			}
		}
		switch msg.Kind {
		case kindFindSuccessor:
			req, ok := msg.Payload.(*findSuccessorReq)
			if !ok || req == nil {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			v := d.view()
			succ := v.successorID(n.id + 1)
			req.reply = findSuccessorResp{Done: true, Node: succ}
			if !inInterval(req.Key, n.id, succ) {
				if next := v.closestPrecedingFinger(n.id, req.Key); next != n.id {
					req.reply = findSuccessorResp{Next: next}
				}
			}
			return simnet.Message{Kind: msg.Kind, Payload: &req.reply, Size: 24}, nil

		case kindStore:
			req, ok := msg.Payload.(*storeReq)
			if !ok || req == nil {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			n.mu.Lock()
			n.data.put(req.Key, req.Top, req.Value)
			n.mu.Unlock()
			return simnet.Message{Kind: msg.Kind, Size: 8}, nil

		case kindFetch:
			req, ok := msg.Payload.(*fetchReq)
			if !ok || req == nil {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			n.mu.Lock()
			v, found := n.data.get(req.Key)
			n.mu.Unlock()
			req.reply = fetchResp{Found: found}
			if found {
				req.reply.Value = append([]byte(nil), v...)
			}
			return simnet.Message{Kind: msg.Kind, Payload: &req.reply, Size: 8 + len(req.reply.Value)}, nil

		case kindDigest:
			req, ok := msg.Payload.(digestReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			return simnet.Message{Kind: msg.Kind, Payload: digestReply(n, req.Keys, req.Nonce), Size: 64}, nil

		case kindDigestBatch:
			req, ok := msg.Payload.(digestBatchReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			return handleDigestBatch(n, req)

		case kindStoreBatch:
			req, ok := msg.Payload.(*storeBatchReq)
			if !ok || req == nil {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			return handleStoreBatch(n, req)

		case kindFetchBatch:
			req, ok := msg.Payload.(*fetchBatchReq)
			if !ok || req == nil {
				return simnet.Message{}, fmt.Errorf("dht: bad payload for %s", msg.Kind)
			}
			return handleFetchBatch(n, req)
		}
		return simnet.Message{}, fmt.Errorf("dht: unknown message kind %q", msg.Kind)
	}
}

// findSuccessor runs the iterative Chord lookup from the origin node,
// charging each routing step to the frame's trace. It returns the key's
// successor root and lo, the node whose answer ended the walk: root's ring
// predecessor, so (lo, root] is root's whole segment (ownership.go).
func (d *DHT) findSuccessor(f *opFrame, origin simnet.NodeID, key uint64) (root, lo uint64, err error) {
	if t := d.tel.Load(); t != nil {
		t.walks.Inc()
	}
	v := d.view()
	cur := v.names[origin]
	if cur == nil {
		return 0, 0, fmt.Errorf("dht: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	// Local shortcut: origin answers from its own routing state first.
	succ := v.successorID(cur.id + 1)
	if inInterval(key, cur.id, succ) {
		return succ, cur.id, nil
	}
	target := v.closestPrecedingFinger(cur.id, key)
	// One request serves the whole walk.
	f.find.Key = key
	req := simnet.Message{Kind: kindFindSuccessor, Payload: &f.find, Size: 16}
	for step := 0; step < 2*ringBits; step++ {
		// Each hop is resolved against the ring as it is now: the replies
		// that steer the walk come from handlers reading the current view.
		v = d.view()
		targetNode := v.byID[target]
		if targetNode == nil {
			return 0, 0, overlay.ErrUnavailable
		}
		reply, err := d.net.RPC(&f.tr, origin, targetNode.name, req)
		if err != nil {
			// Route around an unreachable hop: fall back to its ring
			// successor, as Chord's failure handling would after a timeout.
			next := v.successorID(target + 1)
			if next == target {
				return 0, 0, overlay.ErrUnavailable
			}
			// If stepping from the dead node to its successor crosses the
			// key, that successor IS the key's successor — conclude rather
			// than overshoot and ping-pong around the ring.
			if inInterval(key, target, next) {
				return next, target, nil
			}
			target = next
			continue
		}
		resp, ok := reply.Payload.(*findSuccessorResp)
		if !ok || resp == nil {
			return 0, 0, fmt.Errorf("dht: bad find_successor reply")
		}
		if resp.Done {
			return resp.Node, target, nil
		}
		target = resp.Next
	}
	return 0, 0, fmt.Errorf("dht: lookup did not converge for key %d", key)
}

// Store implements overlay.KV: the value is written to the key's successor
// and its replica set.
func (d *DHT) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	return d.StoreSpan(nil, origin, key, value)
}

// StoreSpan implements overlay.SpanKV: Store with the routing step and each
// replica write attributed to child spans of sp (nil sp: identical untraced
// operation). One trace accumulates the whole operation; a child span's
// latency is what its step added to it.
func (d *DHT) StoreSpan(sp *telemetry.Span, origin, key string, value []byte) (overlay.OpStats, error) {
	sp.Tag("key", key)
	f := borrowFrame()
	defer returnFrame(f)
	tr := &f.tr
	route := sp.Child("route")
	kid := d.keyID(key)
	root, err := d.resolveRoot(f, route, simnet.NodeID(origin), key, kid, false)
	route.AddLatency(tr.Latency)
	route.End(spanOutcome(err))
	if err != nil {
		return *tr, err
	}
	v := d.view()
	replicas := v.placementOf(f.ids[:0], root, d.replica)
	// Write the replica set in placement order, one store RPC each; any ack
	// makes the store succeed. Every replica gets the same request.
	f.store = storeReq{Key: key, Top: idTop(kid), Value: value}
	req := simnet.Message{Kind: kindStore, Payload: &f.store, Size: len(key) + len(value)}
	acks := f.plan.acks // the frame's outcome slots, emptied on return
	for _, rid := range replicas {
		rn := v.byID[rid]
		before := tr.Latency
		ssp := sp.Child("store")
		ssp.Tag("replica", string(rn.name))
		_, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, req)
		ssp.AddLatency(tr.Latency - before)
		ssp.End(spanOutcome(err))
		acks = append(acks, err)
	}
	f.plan.acks = acks // keeps a grown array for the next borrower
	err = writeErr("store", acks)
	if d.short != nil && err == nil && missedAny(acks) {
		d.short(key)
	}
	return *tr, err
}

// SetShortWriteHook installs fn to receive every key whose write was acked
// short: by at least one of the replicas it was sent to, so the caller was
// told it succeeded, but not by all of them. Store names its key and
// PutBatch every key of such a group, in group order, after the outcome
// fold. fn runs on the writer's goroutine. Install it before the DHT serves
// writes; nil (the default) removes it, and then a write does no extra work.
func (d *DHT) SetShortWriteHook(fn func(key string)) { d.short = fn }

// missedAny reports whether some replica did not ack a write.
func missedAny(outcomes []error) bool {
	for _, err := range outcomes {
		if err != nil {
			return true
		}
	}
	return false
}

// writeErr is a replicated write's result from its replicas' outcomes in
// placement order: one ack suffices. With none, a lost reply means the write
// may have been applied, so retry logic treats it as possibly landed (stores
// are idempotent); otherwise the last fault is wrapped in ErrUnavailable. op
// names the write in the ack-lost error.
func writeErr(op string, outcomes []error) error {
	var ackLost error
	for _, err := range outcomes {
		if err == nil {
			return nil
		}
		if ackLost == nil && errors.Is(err, simnet.ErrReplyLost) {
			ackLost = err
		}
	}
	switch {
	case ackLost != nil:
		return fmt.Errorf("dht: %s unacked, may have been applied: %w", op, ackLost)
	case len(outcomes) > 0:
		return fmt.Errorf("%w: %w", overlay.ErrUnavailable, outcomes[len(outcomes)-1])
	}
	return overlay.ErrUnavailable
}

// Lookup implements overlay.KV: it routes to the key's successor and falls
// back through the replica set when nodes are offline.
func (d *DHT) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	return d.LookupSpan(nil, origin, key)
}

// LookupSpan implements overlay.SpanKV: Lookup with the routing step and
// each replica fetch attributed to child spans of sp (nil sp: identical
// untraced operation), accounted on one trace as in StoreSpan.
func (d *DHT) LookupSpan(sp *telemetry.Span, origin, key string) ([]byte, overlay.OpStats, error) {
	sp.Tag("key", key)
	f := borrowFrame()
	defer returnFrame(f)
	tr := &f.tr
	route := sp.Child("route")
	root, err := d.resolveRoot(f, route, simnet.NodeID(origin), key, d.keyID(key), false)
	route.AddLatency(tr.Latency)
	route.End(spanOutcome(err))
	if err != nil {
		return nil, *tr, err
	}
	v := d.view()
	replicas := v.successorsOf(f.ids[:0], root, d.replica)
	// Probe replicas in ring order, stop at the first hit.
	f.fetch.Key = key
	req := simnet.Message{Kind: kindFetch, Payload: &f.fetch, Size: len(key)}
	var lastErr error = overlay.ErrUnavailable
	for _, rid := range replicas {
		rn := v.byID[rid]
		before := tr.Latency
		fsp := sp.Child("fetch")
		fsp.Tag("replica", string(rn.name))
		reply, err := d.net.RPC(tr, simnet.NodeID(origin), rn.name, req)
		fsp.AddLatency(tr.Latency - before)
		if err != nil {
			fsp.End(spanOutcome(err))
			lastErr = err
			continue
		}
		resp, ok := reply.Payload.(*fetchResp)
		if !ok || resp == nil {
			fsp.End("error")
			return nil, *tr, fmt.Errorf("dht: bad fetch reply")
		}
		if resp.Found {
			fsp.End("ok")
			return resp.Value, *tr, nil
		}
		fsp.End("miss")
		lastErr = overlay.ErrNotFound
	}
	return nil, *tr, lastErr
}

// spanOutcome renders an operation error as a span outcome tag.
func spanOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, overlay.ErrNotFound):
		return "miss"
	case errors.Is(err, simnet.ErrReplyLost):
		return "ack-lost"
	case errors.Is(err, simnet.ErrDropped):
		return "drop"
	case errors.Is(err, simnet.ErrNodeOffline):
		return "offline"
	case errors.Is(err, simnet.ErrPartitioned):
		return "partitioned"
	case errors.Is(err, simnet.ErrOverloaded):
		return "overload"
	case errors.Is(err, overlay.ErrUnavailable):
		return "unavailable"
	default:
		return "error"
	}
}
