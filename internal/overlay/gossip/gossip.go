// Package gossip implements an unstructured overlay: nodes form a random
// k-regular neighbor graph, no node stores any index, and lookups flood the
// graph with a TTL.
//
// The paper (Section II-B): "No user in the system store any index, and
// operations of system are simply done by the use of flooding or
// gossip-based communication between users. This kind of management has
// almost zero overhead." Experiment E6 quantifies the trade: zero index
// maintenance, but lookup messages grow with network size.
package gossip

import (
	"fmt"
	"sync"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// Config parameterizes the unstructured overlay.
type Config struct {
	// Degree is the number of random neighbors per node.
	Degree int
	// TTL bounds flooding depth.
	TTL int
}

// DefaultConfig returns a typical configuration (degree 4 random graph,
// TTL covering small-world diameters).
func DefaultConfig() Config { return Config{Degree: 4, TTL: 8} }

// node is one participant; values are stored only at their origin node.
type node struct {
	name      simnet.NodeID
	neighbors []simnet.NodeID

	mu   sync.Mutex
	data map[string][]byte
}

// Gossip is the unstructured overlay.
type Gossip struct {
	net *simnet.Network
	cfg Config

	mu    sync.RWMutex
	nodes map[simnet.NodeID]*node
	// querySeen deduplicates flood queries per query id.
	seenMu    sync.Mutex
	querySeen map[string]map[simnet.NodeID]bool
	nextQuery int
}

var _ overlay.KV = (*Gossip)(nil)

// New creates the overlay, wiring a seeded random neighbor graph.
func New(net *simnet.Network, names []simnet.NodeID, cfg Config) (*Gossip, error) {
	if len(names) == 0 {
		return nil, overlay.ErrNoNodes
	}
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	if cfg.Degree >= len(names) {
		cfg.Degree = len(names) - 1
	}
	if cfg.TTL < 1 {
		cfg.TTL = 1
	}
	g := &Gossip{
		net:       net,
		cfg:       cfg,
		nodes:     make(map[simnet.NodeID]*node, len(names)),
		querySeen: make(map[string]map[simnet.NodeID]bool),
	}
	rng := net.Rand("gossip-topology")
	for _, name := range names {
		n := &node{name: name, data: make(map[string][]byte)}
		g.nodes[name] = n
		if err := net.Register(name, g.handlerFor(n)); err != nil {
			return nil, fmt.Errorf("gossip: registering %s: %w", name, err)
		}
	}
	// Random connected-ish graph: ring for connectivity + random chords.
	for i, name := range names {
		n := g.nodes[name]
		next := names[(i+1)%len(names)]
		n.neighbors = append(n.neighbors, next)
		g.nodes[next].neighbors = append(g.nodes[next].neighbors, name)
		for len(n.neighbors) < cfg.Degree {
			peer := names[rng.Intn(len(names))]
			if peer == name || contains(n.neighbors, peer) {
				continue
			}
			n.neighbors = append(n.neighbors, peer)
			g.nodes[peer].neighbors = append(g.nodes[peer].neighbors, name)
		}
	}
	return g, nil
}

func contains(list []simnet.NodeID, x simnet.NodeID) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// Name implements overlay.KV.
func (g *Gossip) Name() string { return "unstructured-flood" }

// RPC message kinds.
const kindQuery = "gossip.query"

type queryReq struct {
	ID  string
	Key string
	TTL int
}
type queryResp struct {
	Found bool
	Value []byte
}

// handlerFor implements the flooding logic: answer locally or re-flood to
// neighbors with decremented TTL.
func (g *Gossip) handlerFor(n *node) simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		if msg.Kind != kindQuery {
			return simnet.Message{}, fmt.Errorf("gossip: unknown message kind %q", msg.Kind)
		}
		req, ok := msg.Payload.(queryReq)
		if !ok {
			return simnet.Message{}, fmt.Errorf("gossip: bad payload")
		}
		n.mu.Lock()
		v, found := n.data[req.Key]
		n.mu.Unlock()
		if found {
			return simnet.Message{Kind: kindQuery, Payload: queryResp{Found: true, Value: append([]byte(nil), v...)}, Size: 8 + len(v)}, nil
		}
		if req.TTL <= 0 {
			return simnet.Message{Kind: kindQuery, Payload: queryResp{}, Size: 8}, nil
		}
		for _, peer := range n.neighbors {
			if peer == from {
				continue
			}
			if g.markSeen(req.ID, peer) {
				continue
			}
			reply, err := g.net.RPC(tr, n.name, peer, simnet.Message{
				Kind:    kindQuery,
				Payload: queryReq{ID: req.ID, Key: req.Key, TTL: req.TTL - 1},
				Size:    16 + len(req.Key),
			})
			if err != nil {
				continue
			}
			resp, ok := reply.Payload.(queryResp)
			if ok && resp.Found {
				return simnet.Message{Kind: kindQuery, Payload: resp, Size: 8 + len(resp.Value)}, nil
			}
		}
		return simnet.Message{Kind: kindQuery, Payload: queryResp{}, Size: 8}, nil
	}
}

// markSeen records that a query reached a node; it returns true when the
// node had already been covered (so the flood skips it).
func (g *Gossip) markSeen(queryID string, n simnet.NodeID) bool {
	g.seenMu.Lock()
	defer g.seenMu.Unlock()
	set, ok := g.querySeen[queryID]
	if !ok {
		set = make(map[simnet.NodeID]bool)
		g.querySeen[queryID] = set
	}
	if set[n] {
		return true
	}
	set[n] = true
	return false
}

// Store implements overlay.KV. Unstructured overlays keep data at its owner
// ("users decide where to store ... their data"); Store is therefore local
// and free — the cost shows up at lookup time.
func (g *Gossip) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	g.mu.RLock()
	n, ok := g.nodes[simnet.NodeID(origin)]
	g.mu.RUnlock()
	if !ok {
		return overlay.OpStats{}, fmt.Errorf("gossip: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	n.mu.Lock()
	n.data[key] = append([]byte(nil), value...)
	n.mu.Unlock()
	return overlay.OpStats{}, nil
}

// Lookup implements overlay.KV via TTL-bounded flooding.
func (g *Gossip) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	g.mu.RLock()
	n, ok := g.nodes[simnet.NodeID(origin)]
	g.mu.RUnlock()
	if !ok {
		return nil, overlay.OpStats{}, fmt.Errorf("gossip: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	// Local hit first.
	n.mu.Lock()
	if v, found := n.data[key]; found {
		value := append([]byte(nil), v...)
		n.mu.Unlock()
		return value, overlay.OpStats{}, nil
	}
	n.mu.Unlock()

	g.seenMu.Lock()
	g.nextQuery++
	qid := fmt.Sprintf("q%d", g.nextQuery)
	g.seenMu.Unlock()
	g.markSeen(qid, n.name)

	tr := &simnet.Trace{}
	defer g.forgetQuery(qid)
	for _, peer := range n.neighbors {
		if g.markSeen(qid, peer) {
			continue
		}
		reply, err := g.net.RPC(tr, n.name, peer, simnet.Message{
			Kind:    kindQuery,
			Payload: queryReq{ID: qid, Key: key, TTL: g.cfg.TTL - 1},
			Size:    16 + len(key),
		})
		if err != nil {
			continue
		}
		if resp, ok := reply.Payload.(queryResp); ok && resp.Found {
			return resp.Value, *tr, nil
		}
	}
	return nil, *tr, overlay.ErrNotFound
}

func (g *Gossip) forgetQuery(qid string) {
	g.seenMu.Lock()
	delete(g.querySeen, qid)
	g.seenMu.Unlock()
}
