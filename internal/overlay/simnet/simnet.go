// Package simnet provides a deterministic in-memory simulated network on
// which the DOSN overlays (internal/overlay/...) run.
//
// The paper's Section II classifies DOSN architectures by how their control
// and storage overlays are organized; comparing them (experiment E6/E7 in
// DESIGN.md) requires a common substrate that accounts for messages, hops
// and latency, and that can model node churn. A real testbed is substituted
// by this simulator (DESIGN.md §2): nodes are in-process handlers, RPCs are
// synchronous calls with a seeded latency model, and failures (offline
// nodes, message loss, partitions) are injected deterministically.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"godosn/internal/telemetry"
)

// NodeID identifies a node in the simulated network.
type NodeID string

// Errors returned by this package.
var (
	ErrUnknownNode   = errors.New("simnet: unknown node")
	ErrNodeOffline   = errors.New("simnet: node offline")
	ErrDropped       = errors.New("simnet: message dropped")
	ErrPartitioned   = errors.New("simnet: nodes partitioned")
	ErrDuplicateNode = errors.New("simnet: node already registered")
	// ErrReplyLost reports that a request was delivered and handled but the
	// reply never reached the caller. The handler's side effects have
	// happened; retry logic must treat the operation as possibly applied
	// (safe only for idempotent operations). The underlying delivery
	// failure (drop, offline, partition) is wrapped and inspectable.
	ErrReplyLost = errors.New("simnet: reply lost")
)

// Message is an application-level message; payloads stay in memory.
type Message struct {
	// Kind routes the message to handler logic.
	Kind string
	// Payload is the message body; handlers type-assert it.
	Payload any
	// Size is the simulated wire size in bytes, used for traffic accounting.
	Size int
}

// Handler processes incoming RPCs on a node.
type Handler interface {
	// HandleRPC processes a request and returns a reply. The trace must be
	// passed along for any nested RPCs the handler issues.
	HandleRPC(tr *Trace, from NodeID, msg Message) (Message, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(tr *Trace, from NodeID, msg Message) (Message, error)

// HandleRPC implements Handler.
func (f HandlerFunc) HandleRPC(tr *Trace, from NodeID, msg Message) (Message, error) {
	return f(tr, from, msg)
}

var _ Handler = (HandlerFunc)(nil)

// Trace accumulates the cost of one logical operation (e.g. a DHT lookup)
// across all RPCs it triggers.
type Trace struct {
	// Hops counts RPC edges traversed.
	Hops int
	// Messages counts individual messages (request + reply each count 1).
	Messages int
	// Bytes sums simulated payload sizes.
	Bytes int
	// Latency sums simulated one-way delays along the RPC chain.
	Latency time.Duration
}

// Add merges another trace's costs (for fan-out operations).
func (t *Trace) Add(other *Trace) {
	t.Hops += other.Hops
	t.Messages += other.Messages
	t.Bytes += other.Bytes
	t.Latency += other.Latency
}

// Config parameterizes the simulated network.
type Config struct {
	// Seed makes loss and latency jitter deterministic: every link draws
	// from its own sequence derived from it (account.go).
	Seed int64
	// BaseLatency is the fixed one-way delay between any two nodes.
	BaseLatency time.Duration
	// JitterLatency is the maximum additional random one-way delay.
	JitterLatency time.Duration
}

// DefaultConfig returns a deterministic lossless network configuration.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, BaseLatency: 10 * time.Millisecond, JitterLatency: 5 * time.Millisecond}
}

// Network is the simulated network. It is safe for concurrent use.
//
// Nothing on the message path is network-wide. RPC and Cast read the node
// table through an atomically published immutable map, test each endpoint's
// fault state with atomic loads, and write only the initiating node's
// account (account.go), so callers at different origins share no written
// memory on a lossless, uncapped, honest network. mu is the control-plane
// lock: it serialises Register, hooks and the tick clock, never a message.
type Network struct {
	cfg  Config        // immutable after New
	loss atomic.Uint64 // math.Float64bits of the loss probability; 0 until SetLossRate

	nodes    atomic.Pointer[map[NodeID]*nodeState] // immutable; Register publishes a copy
	tel      atomic.Pointer[netTelemetry]          // nil until SetTelemetry
	stranger *nodeState                            // stands in for senders that never registered

	mu     sync.Mutex
	tick   int              // tick-clock position (advanced by TickCapacity)
	onTick []func(tick int) // tick hooks, invoked outside the lock
}

// nodeState is everything the network keeps about one registered node. The
// fault fields are read on every message that touches the node and written
// only by the fault injectors; what the message path writes lives in acct.
type nodeState struct {
	id      NodeID
	hash    uint64 // id hashed once; seeds this node's link draws
	handler Handler

	offline   atomic.Bool
	errDown   error                         // ErrNodeOffline naming this node as receiver
	errDownTx error                         // ... and as sender
	partition atomic.Int64                  // partition group; 0 = default
	capacity  atomic.Pointer[capacityState] // nil = uncapped (overload.go)
	byz       atomic.Pointer[byzState]      // nil = honest (byzantine.go)

	loadMu   sync.Mutex // guards capacity's window count and overload
	overload OverloadStats

	onCrash func() // guarded by Network.mu

	acct *account
}

// netTelemetry holds the network's registry-backed instruments, resolved
// once at SetTelemetry so the RPC path pays pointer loads, not map lookups.
// The four per-message instruments are the parents every account's
// trafficTelemetry hangs off; the rest count faults and are shared.
type netTelemetry struct {
	rpcs       *telemetry.Counter
	messages   *telemetry.Counter
	bytes      *telemetry.Counter
	delay      *telemetry.Histogram
	dropped    *telemetry.Counter
	offline    *telemetry.Counter
	partition  *telemetry.Counter
	replyLost  *telemetry.Counter
	corrupted  *telemetry.Counter
	sheds      *telemetry.Counter
	queued     *telemetry.Counter
	queueDepth *telemetry.Gauge
	queueDelay *telemetry.Histogram
}

// SetTelemetry wires the network's traffic and fault accounting into a
// metrics registry: simnet_rpcs_total, simnet_messages_total,
// simnet_bytes_total, per-fault-class drop counters,
// simnet_corrupted_replies_total, the overload instruments
// (simnet_overload_sheds_total, simnet_overload_queued_total, the
// simnet_overload_queue_depth_peak gauge, and the
// simnet_overload_queue_delay_ms histogram), and a one-way delay histogram
// (simnet_delay_ms, simulated milliseconds — never wall clock). nil
// detaches. The pre-existing Totals/CorruptedReplies accessors
// keep working; the registry is the shared view other layers report into.
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t *netTelemetry
	if reg != nil {
		t = &netTelemetry{
			rpcs:       reg.Counter("simnet_rpcs_total"),
			messages:   reg.Counter("simnet_messages_total"),
			bytes:      reg.Counter("simnet_bytes_total"),
			delay:      reg.Histogram("simnet_delay_ms", "ms", telemetry.LatencyBuckets()),
			dropped:    reg.Counter("simnet_dropped_total"),
			offline:    reg.Counter("simnet_offline_refusals_total"),
			partition:  reg.Counter("simnet_partition_refusals_total"),
			replyLost:  reg.Counter("simnet_replies_lost_total"),
			corrupted:  reg.Counter("simnet_corrupted_replies_total"),
			sheds:      reg.Counter("simnet_overload_sheds_total"),
			queued:     reg.Counter("simnet_overload_queued_total"),
			queueDepth: reg.Gauge("simnet_overload_queue_depth_peak"),
			queueDelay: reg.Histogram("simnet_overload_queue_delay_ms", "ms", telemetry.LatencyBuckets()),
		}
	}
	n.tel.Store(t)
	n.stranger.acct.setTelemetry(t)
	// Shards fold in creation order and float sums do not commute bit for
	// bit, so hand them out in id order, not map order.
	nodes := n.table()
	ids := n.Nodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		nodes[id].acct.setTelemetry(t)
	}
}

// New creates an empty network.
func New(cfg Config) *Network {
	n := &Network{cfg: cfg, stranger: newNodeState("", nil)}
	n.nodes.Store(&map[NodeID]*nodeState{})
	return n
}

func newNodeState(id NodeID, h Handler) *nodeState {
	hash := mix64(uint64(labelHash(string(id))))
	return &nodeState{
		id: id, hash: hash, handler: h, acct: &account{hash: hash},
		// Built once: a down node answers every message with these.
		errDown:   fmt.Errorf("%w: %s", ErrNodeOffline, id),
		errDownTx: fmt.Errorf("%w: %s (sender)", ErrNodeOffline, id),
	}
}

// table returns the current node table. The map is never written after it
// is published.
func (n *Network) table() map[NodeID]*nodeState { return *n.nodes.Load() }

// node resolves a registered node.
func (n *Network) node(id NodeID) (*nodeState, error) {
	if s := n.table()[id]; s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
}

// Register adds a node with its RPC handler.
func (n *Network) Register(id NodeID, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.table()
	if _, ok := old[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	s := newNodeState(id, h)
	s.acct.setTelemetry(n.tel.Load())
	next := make(map[NodeID]*nodeState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = s
	n.nodes.Store(&next)
	return nil
}

// SetOnline marks a registered node online or offline (churn injection).
// Unregistered nodes are rejected: silently recording liveness for a node
// that does not exist would leave it pre-churned when it later registers.
func (n *Network) SetOnline(id NodeID, online bool) error {
	s, err := n.node(id)
	if err != nil {
		return err
	}
	s.offline.Store(!online)
	return nil
}

// OnCrash registers a hook invoked when the node crashes (Crash): the hook
// models volatile-state loss, e.g. a DHT node dropping its stored keys.
func (n *Network) OnCrash(id NodeID, hook func()) error {
	s, err := n.node(id)
	if err != nil {
		return err
	}
	n.mu.Lock()
	s.onCrash = hook
	n.mu.Unlock()
	return nil
}

// Crash takes a node offline like SetOnline(id, false) and additionally
// fires its OnCrash hook, modeling a crash-restart failure in which
// in-memory state is lost. Bring the node back with SetOnline(id, true);
// it restarts empty.
func (n *Network) Crash(id NodeID) error {
	s, err := n.node(id)
	if err != nil {
		return err
	}
	s.offline.Store(true)
	n.mu.Lock()
	hook := s.onCrash
	n.mu.Unlock()
	if hook != nil {
		hook()
	}
	return nil
}

// Online reports whether a node is registered and online.
func (n *Network) Online(id NodeID) bool {
	s := n.table()[id]
	return s != nil && !s.offline.Load()
}

// SetPartition assigns a registered node to a partition group; nodes in
// different groups cannot exchange messages. Group 0 is the default
// connected group. Unregistered nodes are rejected (see SetOnline).
func (n *Network) SetPartition(id NodeID, group int) error {
	s, err := n.node(id)
	if err != nil {
		return err
	}
	s.partition.Store(int64(group))
	return nil
}

// SetLossRate sets the probability in [0,1) that a message is dropped. A
// new network is lossless.
func (n *Network) SetLossRate(rate float64) { n.loss.Store(math.Float64bits(rate)) }

// CurrentLossRate reports the loss probability currently in effect.
func (n *Network) CurrentLossRate() float64 { return math.Float64frombits(n.loss.Load()) }

// Nodes returns all registered node IDs (online and offline).
func (n *Network) Nodes() []NodeID {
	nodes := n.table()
	out := make([]NodeID, 0, len(nodes))
	for id := range nodes {
		out = append(out, id)
	}
	return out
}

// carry moves one message src → dst: it checks deliverability, draws loss
// and jitter from the link's own sequence (account.go), and charges the
// message to tr and to the account of the call's initiator — src on the
// request leg, dst on the reply leg. Only the request leg enters the
// destination's capacity model — replies ride back without re-entering the
// receiver's admission queue — and only it counts a hop.
func (n *Network) carry(tr *Trace, src, dst *nodeState, from, to NodeID, size int, leg int) error {
	if dst.offline.Load() {
		if t := n.tel.Load(); t != nil {
			t.offline.Inc()
		}
		return dst.errDown
	}
	if src.offline.Load() {
		if t := n.tel.Load(); t != nil {
			t.offline.Inc()
		}
		return src.errDownTx
	}
	if src.partition.Load() != dst.partition.Load() {
		if t := n.tel.Load(); t != nil {
			t.partition.Inc()
		}
		return fmt.Errorf("%w: %s / %s", ErrPartitioned, from, to)
	}
	delay := n.cfg.BaseLatency
	initiator, peer := dst, src
	if leg == legRequest {
		initiator, peer = src, dst
		if c := dst.capacity.Load(); c != nil {
			queueDelay, err := n.admitCapacity(dst, c)
			if err != nil {
				return err
			}
			delay += queueDelay
		}
	}
	loss := n.CurrentLossRate()

	acct := initiator.acct
	acct.mu.Lock()
	if loss > 0 || n.cfg.JitterLatency > 0 {
		h := acct.draw(uint64(n.cfg.Seed), peer, leg)
		if loss > 0 && unitFloat(h) < loss {
			acct.mu.Unlock()
			if t := n.tel.Load(); t != nil {
				t.dropped.Inc()
			}
			return fmt.Errorf("%w: %s -> %s", ErrDropped, from, to)
		}
		if n.cfg.JitterLatency > 0 {
			delay += jitterOf(h, n.cfg.JitterLatency)
		}
	}
	tr.Messages++
	tr.Bytes += size
	tr.Latency += delay
	acct.totals.Messages++
	acct.totals.Bytes += size
	acct.totals.Latency += delay
	if leg == legRequest {
		tr.Hops++
		acct.totals.Hops++
	}
	if t := acct.tel; t != nil {
		t.messages.Inc()
		t.bytes.Add(int64(size))
		t.delay.ObserveDuration(delay)
		if leg == legRequest {
			t.rpcs.Inc()
		}
	}
	acct.mu.Unlock()
	return nil
}

// endpoints resolves both ends of a call. An unknown destination is an
// error; an unregistered sender is carried by the stranger state (never
// offline, default partition), as it always could send but not be replied to.
func (n *Network) endpoints(from, to NodeID) (src, dst *nodeState, err error) {
	nodes := n.table()
	if dst = nodes[to]; dst == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if src = nodes[from]; src == nil {
		src = n.stranger
	}
	return src, dst, nil
}

// RPC sends a request from one node to another and returns the reply. Both
// directions are charged to the trace; the hop count increases by one.
func (n *Network) RPC(tr *Trace, from, to NodeID, msg Message) (Message, error) {
	if tr == nil {
		tr = &Trace{}
	}
	src, dst, err := n.endpoints(from, to)
	if err != nil {
		return Message{}, err
	}
	if err := n.carry(tr, src, dst, from, to, msg.Size, legRequest); err != nil {
		return Message{}, err
	}
	reply, err := dst.handler.HandleRPC(tr, from, msg)
	if err != nil {
		return Message{}, fmt.Errorf("simnet: rpc %s->%s %q: %w", from, to, msg.Kind, err)
	}
	// A Byzantine responder may silently corrupt the reply (byzantine.go);
	// no error is produced — detection is the caller's problem.
	if b := dst.byz.Load(); b != nil {
		var lied bool
		if reply, lied = b.corrupt(n.cfg.Seed, from, to, reply); lied {
			n.noteCorrupted(src.acct)
		}
	}
	// Charge the reply direction. A failure here is NOT equivalent to the
	// request being lost: the handler has already run, so the caller must
	// learn that the operation may have been applied.
	var aerr error
	if src == n.stranger {
		aerr = fmt.Errorf("%w: %s", ErrUnknownNode, from)
	} else {
		aerr = n.carry(tr, dst, src, to, from, reply.Size, legReply)
	}
	if aerr != nil {
		if t := n.tel.Load(); t != nil {
			t.replyLost.Inc()
		}
		return Message{}, fmt.Errorf("%w: %s->%s: %w", ErrReplyLost, to, from, aerr)
	}
	return reply, nil
}

// Cast sends a one-way message (no reply, still handled synchronously).
// Errors from the handler are returned; delivery failures likewise.
func (n *Network) Cast(tr *Trace, from, to NodeID, msg Message) error {
	if tr == nil {
		tr = &Trace{}
	}
	src, dst, err := n.endpoints(from, to)
	if err != nil {
		return err
	}
	if err := n.carry(tr, src, dst, from, to, msg.Size, legRequest); err != nil {
		return err
	}
	if _, err := dst.handler.HandleRPC(tr, from, msg); err != nil {
		return fmt.Errorf("simnet: cast %s->%s %q: %w", from, to, msg.Kind, err)
	}
	return nil
}

// Rand returns a deterministic sub-RNG for a consumer, derived from the
// network seed and the given label, so overlay-internal randomness stays
// reproducible and independent of call order elsewhere.
func (n *Network) Rand(label string) *rand.Rand {
	return rand.New(rand.NewSource(n.cfg.Seed ^ labelHash(label)))
}
