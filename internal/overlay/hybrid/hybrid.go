// Package hybrid implements a Cachet-style hybrid structured/unstructured
// storage overlay: a DHT base layer combined with gossip-based social
// caching.
//
// The paper (Section II-B): "As the storage overlay, Cachet uses hybrid
// structured-unstructured overlay using a DHT-based approach together with
// gossip-based caching to achieve high performance." A lookup first probes
// the node's own cache and its social neighbors' caches (one hop), falling
// back to the DHT; hits then populate the local cache, so popular content
// gets cheaper over time — the behaviour experiment E6/E7 measures.
package hybrid

import (
	"fmt"
	"sync"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
)

// Config parameterizes the hybrid overlay.
type Config struct {
	// DHT configures the structured base layer.
	DHT dht.Config
	// CacheSize bounds each node's cache entries (0 = unbounded).
	CacheSize int
	// Fanout is how many social neighbors are probed before the DHT.
	Fanout int
}

// DefaultConfig uses a replication factor of 2 and probes 3 friends.
func DefaultConfig() Config {
	return Config{DHT: dht.Config{ReplicationFactor: 2}, CacheSize: 256, Fanout: 3}
}

type cacheNode struct {
	name    simnet.NodeID
	friends []simnet.NodeID

	mu    sync.Mutex
	cache map[string][]byte
	order []string // FIFO eviction order
}

// Overlay is the hybrid DHT + social-cache overlay.
type Overlay struct {
	net *simnet.Network
	cfg Config
	dht *dht.DHT

	mu    sync.RWMutex
	nodes map[simnet.NodeID]*cacheNode
}

var _ overlay.KV = (*Overlay)(nil)

// New builds the hybrid overlay. The friends map supplies the social edges
// used for cache gossip; nodes absent from the map simply have no cache
// neighbors.
func New(net *simnet.Network, names []simnet.NodeID, friends map[simnet.NodeID][]simnet.NodeID, cfg Config) (*Overlay, error) {
	base, err := dht.New(net, names, cfg.DHT)
	if err != nil {
		return nil, fmt.Errorf("hybrid: building DHT layer: %w", err)
	}
	o := &Overlay{net: net, cfg: cfg, dht: base, nodes: make(map[simnet.NodeID]*cacheNode, len(names))}
	for _, name := range names {
		n := &cacheNode{name: name, friends: friends[name], cache: make(map[string][]byte)}
		o.nodes[name] = n
		// The cache protocol piggybacks on a distinct simnet identity so it
		// can coexist with the DHT handler for the same logical node.
		cacheID := CacheIdentity(name)
		if err := net.Register(cacheID, o.cacheHandler(n)); err != nil {
			return nil, fmt.Errorf("hybrid: registering cache for %s: %w", name, err)
		}
	}
	return o, nil
}

// CacheIdentity derives the simnet identity of a node's cache service.
// Churn injection must take a node's cache identity offline together with
// the node itself.
func CacheIdentity(name simnet.NodeID) simnet.NodeID {
	return name + "#cache"
}

// Name implements overlay.KV.
func (o *Overlay) Name() string { return "hybrid-dht-gossip-cache" }

// RPC message kinds.
const kindCacheProbe = "hybrid.cache_probe"

type probeReq struct{ Key string }
type probeResp struct {
	Found bool
	Value []byte
}

func (o *Overlay) cacheHandler(n *cacheNode) simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		if msg.Kind != kindCacheProbe {
			return simnet.Message{}, fmt.Errorf("hybrid: unknown message kind %q", msg.Kind)
		}
		req, ok := msg.Payload.(probeReq)
		if !ok {
			return simnet.Message{}, fmt.Errorf("hybrid: bad payload")
		}
		n.mu.Lock()
		v, found := n.cache[req.Key]
		n.mu.Unlock()
		resp := probeResp{Found: found}
		if found {
			resp.Value = append([]byte(nil), v...)
		}
		return simnet.Message{Kind: kindCacheProbe, Payload: resp, Size: 8 + len(resp.Value)}, nil
	}
}

// cachePut inserts into a node's bounded cache.
func (o *Overlay) cachePut(n *cacheNode, key string, value []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.cache[key]; !exists {
		n.order = append(n.order, key)
		if o.cfg.CacheSize > 0 && len(n.order) > o.cfg.CacheSize {
			evict := n.order[0]
			n.order = n.order[1:]
			delete(n.cache, evict)
		}
	}
	n.cache[key] = append([]byte(nil), value...)
}

// Store implements overlay.KV: store through the DHT and seed the origin's
// cache.
func (o *Overlay) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	st, err := o.dht.Store(origin, key, value)
	if err != nil {
		return st, err
	}
	o.mu.RLock()
	n := o.nodes[simnet.NodeID(origin)]
	o.mu.RUnlock()
	if n != nil {
		o.cachePut(n, key, value)
	}
	return st, nil
}

// Lookup implements overlay.KV: local cache, then friends' caches, then the
// DHT; hits backfill the local cache.
func (o *Overlay) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	o.mu.RLock()
	n := o.nodes[simnet.NodeID(origin)]
	o.mu.RUnlock()
	if n == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("hybrid: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	// Local cache.
	n.mu.Lock()
	if v, ok := n.cache[key]; ok {
		value := append([]byte(nil), v...)
		n.mu.Unlock()
		return value, overlay.OpStats{}, nil
	}
	n.mu.Unlock()

	// Social cache probes.
	tr := &simnet.Trace{}
	probed := 0
	for _, friend := range n.friends {
		if probed >= o.cfg.Fanout {
			break
		}
		probed++
		reply, err := o.net.RPC(tr, CacheIdentity(n.name), CacheIdentity(friend), simnet.Message{
			Kind:    kindCacheProbe,
			Payload: probeReq{Key: key},
			Size:    len(key),
		})
		if err != nil {
			continue
		}
		if resp, ok := reply.Payload.(probeResp); ok && resp.Found {
			o.cachePut(n, key, resp.Value)
			return resp.Value, *tr, nil
		}
	}

	// DHT fallback.
	value, dhtStats, err := o.dht.Lookup(origin, key)
	total := *tr
	total.Hops += dhtStats.Hops
	total.Messages += dhtStats.Messages
	total.Bytes += dhtStats.Bytes
	total.Latency += dhtStats.Latency
	if err != nil {
		return nil, total, err
	}
	o.cachePut(n, key, value)
	return value, total, nil
}

// ReplicasFor implements overlay.ReplicaKV by delegating to the DHT base
// layer: hedged reads bypass the social caches and race the replica set.
func (o *Overlay) ReplicasFor(origin, key string) ([]string, overlay.OpStats, error) {
	return o.dht.ReplicasFor(origin, key)
}

// LookupFrom implements overlay.ReplicaKV via the DHT base layer.
func (o *Overlay) LookupFrom(origin, key, replica string) ([]byte, overlay.OpStats, error) {
	return o.dht.LookupFrom(origin, key, replica)
}

// Heal implements overlay.Healer: the DHT base layer re-replicates; the
// gossip caches are best-effort and need no repair.
func (o *Overlay) Heal() (overlay.HealReport, error) {
	return o.dht.Heal()
}

var (
	_ overlay.ReplicaKV = (*Overlay)(nil)
	_ overlay.Healer    = (*Overlay)(nil)
)
