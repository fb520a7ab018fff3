// Package hybrid implements a Cachet-style hybrid structured/unstructured
// storage overlay: a DHT base layer combined with gossip-based social
// caching.
//
// The paper (Section II-B): "As the storage overlay, Cachet uses hybrid
// structured-unstructured overlay using a DHT-based approach together with
// gossip-based caching to achieve high performance." A lookup first probes
// the node's own cache and its social neighbors' caches (one hop), falling
// back to the DHT; hits then populate the local cache, so popular content
// gets cheaper over time — the behaviour experiment E6/E7 measures. A Store
// drops every node's cached copy of its key, so a re-stored value is never
// answered with the one it replaced.
package hybrid

import (
	"bytes"
	"fmt"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
)

const (
	// cacheSize bounds each node's social cache (entries).
	cacheSize = 256
	// fanout is how many social neighbors a lookup probes before the DHT.
	fanout = 3
)

type cacheNode struct {
	name    simnet.NodeID
	friends []simnet.NodeID
	cache   *cache.Cache[[]byte]
}

// Overlay is the hybrid DHT + social-cache overlay.
type Overlay struct {
	net   *simnet.Network
	dht   *dht.DHT
	nodes map[simnet.NodeID]*cacheNode
}

var _ overlay.KV = (*Overlay)(nil)

// New builds the hybrid overlay over a DHT base layer configured by cfg.
// The friends map supplies the social edges used for cache gossip; nodes
// absent from the map simply have no cache neighbors.
func New(net *simnet.Network, names []simnet.NodeID, friends map[simnet.NodeID][]simnet.NodeID, cfg dht.Config) (*Overlay, error) {
	base, err := dht.New(net, names, cfg)
	if err != nil {
		return nil, fmt.Errorf("hybrid: building DHT layer: %w", err)
	}
	o := &Overlay{net: net, dht: base, nodes: make(map[simnet.NodeID]*cacheNode, len(names))}
	for _, name := range names {
		n := &cacheNode{
			name:    name,
			friends: friends[name],
			cache:   cache.New[[]byte](cache.Config{Capacity: cacheSize, Shards: 1}),
		}
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
		v, found := n.cache.Get(req.Key)
		resp := probeResp{Found: found, Value: bytes.Clone(v)}
		return simnet.Message{Kind: kindCacheProbe, Payload: resp, Size: 8 + len(resp.Value)}, nil
	}
}

// Store implements overlay.KV: store through the DHT, drop every node's
// cached copy of the key and seed the origin's cache. A re-store supersedes
// the old value everywhere, so no cache serves it as current; the drop is
// unconditional because even a failed Store may have landed on a replica.
func (o *Overlay) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	st, err := o.dht.Store(origin, key, value)
	for _, n := range o.nodes {
		n.cache.Invalidate(key)
	}
	if err != nil {
		return st, err
	}
	if n := o.nodes[simnet.NodeID(origin)]; n != nil {
		n.cache.Put(key, bytes.Clone(value))
	}
	return st, nil
}

// Lookup implements overlay.KV: local cache, then friends' caches, then the
// DHT; hits backfill the local cache. The caller gets its own copy.
func (o *Overlay) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	n := o.nodes[simnet.NodeID(origin)]
	if n == nil {
		return nil, overlay.OpStats{}, fmt.Errorf("hybrid: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	var st overlay.OpStats
	value, _, err := n.cache.Do(key, func() (v []byte, err error) {
		v, st, err = o.fetch(n, key)
		return v, err
	})
	if err != nil {
		return nil, st, err
	}
	return bytes.Clone(value), st, nil
}

// fetch is a local-cache miss: the friends' caches, then the DHT.
func (o *Overlay) fetch(n *cacheNode, key string) ([]byte, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	for i, friend := range n.friends {
		if i == fanout {
			break
		}
		reply, err := o.net.RPC(tr, CacheIdentity(n.name), CacheIdentity(friend), simnet.Message{
			Kind:    kindCacheProbe,
			Payload: probeReq{Key: key},
			Size:    len(key),
		})
		if err != nil {
			continue
		}
		if resp, ok := reply.Payload.(probeResp); ok && resp.Found {
			return resp.Value, *tr, nil
		}
	}
	value, dhtStats, err := o.dht.Lookup(string(n.name), key)
	total := *tr
	total.Hops += dhtStats.Hops
	total.Messages += dhtStats.Messages
	total.Bytes += dhtStats.Bytes
	total.Latency += dhtStats.Latency
	return value, total, err
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
