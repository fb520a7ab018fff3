// Package cuckoo implements a Cuckoo-style hybrid *control* overlay (paper
// Section II-B): "The hybrid control overlay of Cuckoo uses structured
// lookup for finding rare items, whereas, the unstructured lookup helps
// with the fast discovery of popular items."
//
// Popular items are proactively disseminated to a node's random neighbors
// (a gossip push keyed on observed demand), so later lookups hit a neighbor
// in one hop; rare items fall through to the DHT's O(log n) routing. The
// popularity threshold is the knob experiment E12 sweeps.
package cuckoo

import (
	"fmt"
	"sync"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
)

// Config parameterizes the hybrid control overlay.
type Config struct {
	// DHT configures the structured layer.
	DHT dht.Config
	// Degree is the number of random gossip neighbors per node.
	Degree int
	// PopularityThreshold is the access count at which an item starts being
	// pushed to neighbors.
	PopularityThreshold int
}

// DefaultConfig pushes items after 3 observed accesses.
func DefaultConfig() Config {
	return Config{DHT: dht.Config{ReplicationFactor: 2}, Degree: 4, PopularityThreshold: 3}
}

type node struct {
	name      simnet.NodeID
	neighbors []simnet.NodeID

	mu     sync.Mutex
	cached map[string][]byte
}

// Overlay is the Cuckoo-style hybrid control overlay.
type Overlay struct {
	net *simnet.Network
	cfg Config
	dht *dht.DHT

	mu    sync.Mutex
	nodes map[simnet.NodeID]*node
	// demand tracks global access counts per key (each node would track its
	// own demand; a shared counter is equivalent under uniform routing and
	// keeps the simulation simple).
	demand map[string]int
	// pushed records keys already disseminated.
	pushed map[string]bool
}

var _ overlay.KV = (*Overlay)(nil)

// gossipIdentity is the simnet identity of a node's gossip cache service.
func gossipIdentity(name simnet.NodeID) simnet.NodeID { return name + "#cuckoo" }

// New builds the overlay: a DHT plus a seeded random neighbor graph for the
// popularity push layer.
func New(net *simnet.Network, names []simnet.NodeID, cfg Config) (*Overlay, error) {
	base, err := dht.New(net, names, cfg.DHT)
	if err != nil {
		return nil, fmt.Errorf("cuckoo: building DHT layer: %w", err)
	}
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	if cfg.Degree >= len(names) {
		cfg.Degree = len(names) - 1
	}
	o := &Overlay{
		net:    net,
		cfg:    cfg,
		dht:    base,
		nodes:  make(map[simnet.NodeID]*node, len(names)),
		demand: make(map[string]int),
		pushed: make(map[string]bool),
	}
	rng := net.Rand("cuckoo-topology")
	for _, name := range names {
		n := &node{name: name, cached: make(map[string][]byte)}
		o.nodes[name] = n
		if err := net.Register(gossipIdentity(name), o.handlerFor(n)); err != nil {
			return nil, fmt.Errorf("cuckoo: registering %s: %w", name, err)
		}
	}
	for i, name := range names {
		n := o.nodes[name]
		n.neighbors = append(n.neighbors, names[(i+1)%len(names)])
		for len(n.neighbors) < cfg.Degree {
			peer := names[rng.Intn(len(names))]
			if peer == name || containsID(n.neighbors, peer) {
				continue
			}
			n.neighbors = append(n.neighbors, peer)
		}
	}
	return o, nil
}

func containsID(list []simnet.NodeID, x simnet.NodeID) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// Name implements overlay.KV.
func (o *Overlay) Name() string { return "hybrid-control-cuckoo" }

// RPC message kinds.
const (
	kindProbe = "cuckoo.probe"
	kindPush  = "cuckoo.push"
)

type probeReq struct{ Key string }
type probeResp struct {
	Found bool
	Value []byte
}
type pushReq struct {
	Key   string
	Value []byte
}

func (o *Overlay) handlerFor(n *node) simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		switch msg.Kind {
		case kindProbe:
			req, ok := msg.Payload.(probeReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("cuckoo: bad payload")
			}
			n.mu.Lock()
			v, found := n.cached[req.Key]
			n.mu.Unlock()
			resp := probeResp{Found: found}
			if found {
				resp.Value = append([]byte(nil), v...)
			}
			return simnet.Message{Kind: kindProbe, Payload: resp, Size: 8 + len(resp.Value)}, nil
		case kindPush:
			req, ok := msg.Payload.(pushReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("cuckoo: bad payload")
			}
			n.mu.Lock()
			n.cached[req.Key] = append([]byte(nil), req.Value...)
			n.mu.Unlock()
			return simnet.Message{Kind: kindPush, Size: 4}, nil
		}
		return simnet.Message{}, fmt.Errorf("cuckoo: unknown message kind %q", msg.Kind)
	}
}

// Store implements overlay.KV via the DHT layer.
func (o *Overlay) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	return o.dht.Store(origin, key, value)
}

// Lookup implements overlay.KV: popular items resolve from the gossip layer
// (own cache or a one-hop neighbor), everything else routes through the DHT.
// Items crossing the demand threshold are pushed to the caller's neighbors.
func (o *Overlay) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	o.mu.Lock()
	n := o.nodes[simnet.NodeID(origin)]
	o.mu.Unlock()
	if n == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("cuckoo: origin %s not in overlay", origin)
	}
	// Local cache (popular item already pushed here).
	n.mu.Lock()
	if v, ok := n.cached[key]; ok {
		value := append([]byte(nil), v...)
		n.mu.Unlock()
		o.recordDemand(key)
		return value, overlay.OpStats{}, nil
	}
	n.mu.Unlock()

	tr := &simnet.Trace{}
	// One-hop neighbor probes for popular items.
	if o.isPopular(key) {
		for _, peer := range n.neighbors {
			reply, err := o.net.RPC(tr, gossipIdentity(n.name), gossipIdentity(peer), simnet.Message{
				Kind: kindProbe, Payload: probeReq{Key: key}, Size: len(key),
			})
			if err != nil {
				continue
			}
			if resp, ok := reply.Payload.(probeResp); ok && resp.Found {
				o.recordDemand(key)
				o.maybePush(tr, n, key, resp.Value)
				return resp.Value, *tr, nil
			}
		}
	}
	// Structured fallback for rare items.
	value, dhtStats, err := o.dht.Lookup(origin, key)
	total := *tr
	total.Hops += dhtStats.Hops
	total.Messages += dhtStats.Messages
	total.Bytes += dhtStats.Bytes
	total.Latency += dhtStats.Latency
	if err != nil {
		return nil, total, err
	}
	o.recordDemand(key)
	o.maybePush(tr, n, key, value)
	return value, total, nil
}

// recordDemand bumps the key's observed access count.
func (o *Overlay) recordDemand(key string) {
	o.mu.Lock()
	o.demand[key]++
	o.mu.Unlock()
}

// isPopular reports whether the key has crossed the dissemination threshold.
func (o *Overlay) isPopular(key string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.demand[key] >= o.cfg.PopularityThreshold
}

// maybePush disseminates a newly-popular item to the node's neighbors (and
// caches it locally). Push traffic is charged to the triggering lookup —
// that is the bandwidth cost of fast popular discovery.
func (o *Overlay) maybePush(tr *simnet.Trace, n *node, key string, value []byte) {
	n.mu.Lock()
	n.cached[key] = append([]byte(nil), value...)
	n.mu.Unlock()
	if !o.isPopular(key) {
		return
	}
	o.mu.Lock()
	if o.pushed[key] {
		o.mu.Unlock()
		return
	}
	o.pushed[key] = true
	o.mu.Unlock()
	for _, peer := range n.neighbors {
		//nolint:errcheck // push is best-effort gossip
		o.net.Cast(tr, gossipIdentity(n.name), gossipIdentity(peer), simnet.Message{
			Kind: kindPush, Payload: pushReq{Key: key, Value: value}, Size: len(key) + len(value),
		})
	}
}
