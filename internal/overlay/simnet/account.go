package simnet

import (
	"math/bits"
	"sync"
	"time"

	"godosn/internal/telemetry"
)

// This file holds what the message path writes: one account per node, and
// the counter-hashed loss and jitter draws keyed by link.
//
// Accounting sits at the initiator. Every message of an RPC or Cast — the
// request leg, the reply leg, the hop, the telemetry — is charged to the
// account of the node that issued the call, never to its destination: a
// caller fans out over many destinations, so destination-side ledgers would
// have concurrent callers writing every node's cache line in lock-step,
// while initiator-side ledgers give each caller one line of its own. The
// network-wide views (Totals, CorruptedReplies) sum the accounts.
//
// Determinism: there is no shared random stream. The n-th message on a
// link's leg draws mix(seed, initiator, peer, leg, n), so a serial run
// repeats exactly, and callers on different links cannot perturb each
// other's loss or jitter whatever their interleaving. Two goroutines
// sharing one link still race for its sequence numbers.

// Legs of a call, as seen from its initiator.
const (
	legRequest = 0 // initiator → peer
	legReply   = 1 // peer → initiator
)

// account is one initiating node's ledger. It is padded to two cache lines:
// Register allocates accounts back to back, and neighbours must not share a
// line.
type account struct {
	mu        sync.Mutex
	totals    Trace
	corrupted int
	hash      uint64               // the owner's id hash
	links     map[*nodeState]*link // per peer; nil until the first loss or jitter draw
	tel       *trafficTelemetry    // nil until SetTelemetry
	_         [56]byte
}

// link is the draw state of one (initiator, peer) pair, per leg.
type link struct {
	seed [2]uint64
	seq  [2]uint64
}

// trafficTelemetry is one account's own shards of the per-message
// instruments: same metric names, no shared cache line.
type trafficTelemetry struct {
	rpcs     *telemetry.Counter
	messages *telemetry.Counter
	bytes    *telemetry.Counter
	delay    *telemetry.Histogram
}

// setTelemetry gives the account a shard of each of t's per-message
// instruments (nil detaches).
func (a *account) setTelemetry(t *netTelemetry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t == nil {
		a.tel = nil
		return
	}
	a.tel = &trafficTelemetry{
		rpcs:     t.rpcs.Shard(),
		messages: t.messages.Shard(),
		bytes:    t.bytes.Shard(),
		delay:    t.delay.Shard(),
	}
}

// draw returns the next 64 random bits of the (owner, peer, leg) sequence —
// a splitmix64 stream seeded from the network seed and both identities.
// Link state is created on first use, so a network that never draws never
// allocates it. Call with a.mu held.
func (a *account) draw(seed uint64, peer *nodeState, leg int) uint64 {
	l := a.links[peer]
	if l == nil {
		if a.links == nil {
			a.links = make(map[*nodeState]*link)
		}
		pair := mix64(mix64(seed^a.hash) + peer.hash)
		l = &link{seed: [2]uint64{mix64(pair), mix64(pair + 1)}}
		a.links[peer] = l
	}
	l.seq[leg]++
	return mix64(l.seed[leg] + l.seq[leg]*0x9e3779b97f4a7c15)
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unitFloat maps a draw to [0, 1) — the loss decision.
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// jitterOf maps a draw to [0, max). The draw is mixed once more so the
// jitter is independent of the loss decision the same draw already made.
func jitterOf(h uint64, max time.Duration) time.Duration {
	hi, _ := bits.Mul64(mix64(h), uint64(max))
	return time.Duration(hi)
}

// noteCorrupted counts one corrupted reply against the call's initiator
// and, when telemetry is wired, the registry.
func (n *Network) noteCorrupted(a *account) {
	a.mu.Lock()
	a.corrupted++
	a.mu.Unlock()
	if t := n.tel.Load(); t != nil {
		t.corrupted.Inc()
	}
}

// accounts calls fn on every account, the stranger's included, under the
// account's lock.
func (n *Network) accounts(fn func(a *account)) {
	visit := func(a *account) {
		a.mu.Lock()
		fn(a)
		a.mu.Unlock()
	}
	visit(n.stranger.acct)
	for _, s := range n.table() {
		visit(s.acct)
	}
}

// Totals returns the accumulated network-wide traffic counters.
func (n *Network) Totals() Trace {
	var sum Trace
	n.accounts(func(a *account) { sum.Add(&a.totals) })
	return sum
}

// CorruptedReplies reports how many replies the network has corrupted since
// the last ResetTotals — the injected-fault count experiments compare
// against how many corruptions *surfaced* to the application.
func (n *Network) CorruptedReplies() int {
	sum := 0
	n.accounts(func(a *account) { sum += a.corrupted })
	return sum
}

// ResetTotals zeroes the network-wide counters (between experiment runs).
// Link draw sequences carry on, as a seeded stream would.
func (n *Network) ResetTotals() {
	n.accounts(func(a *account) {
		a.totals = Trace{}
		a.corrupted = 0
	})
	for _, s := range n.table() {
		s.loadMu.Lock()
		s.overload = OverloadStats{}
		s.loadMu.Unlock()
	}
}
