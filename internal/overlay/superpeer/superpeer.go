// Package superpeer implements a semi-structured overlay in the style of
// SuperNova: a subset of nodes act as super-peers that "are responsible for
// storing the index and managing other users" (paper Section II-B).
//
// Regular nodes attach to one super-peer. The global index is partitioned
// across super-peers by key hash; a lookup asks the local super-peer, which
// forwards to the responsible super-peer when needed — a constant number of
// hops independent of network size, at the cost of index concentration.
package superpeer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// Config parameterizes the super-peer overlay.
type Config struct {
	// SuperPeerFraction is the fraction of nodes promoted to super-peer
	// (at least one).
	SuperPeerFraction float64
}

// DefaultConfig promotes 10% of nodes.
func DefaultConfig() Config { return Config{SuperPeerFraction: 0.1} }

type superNode struct {
	name simnet.NodeID

	mu sync.Mutex
	// index maps key -> value for this super-peer's partition.
	index map[string][]byte
}

type leafNode struct {
	name  simnet.NodeID
	super simnet.NodeID
}

// Overlay is the semi-structured super-peer network.
type Overlay struct {
	net *simnet.Network

	mu     sync.RWMutex
	supers []*superNode
	leaves map[simnet.NodeID]*leafNode
	byName map[simnet.NodeID]*superNode
}

var _ overlay.KV = (*Overlay)(nil)

// New creates the overlay: the first ceil(fraction*n) nodes (selected by a
// seeded shuffle) become super-peers; the rest attach round-robin.
func New(net *simnet.Network, names []simnet.NodeID, cfg Config) (*Overlay, error) {
	if len(names) == 0 {
		return nil, overlay.ErrNoNodes
	}
	nSuper := int(cfg.SuperPeerFraction * float64(len(names)))
	if nSuper < 1 {
		nSuper = 1
	}
	if nSuper > len(names) {
		nSuper = len(names)
	}
	shuffled := append([]simnet.NodeID(nil), names...)
	rng := net.Rand("superpeer-election")
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	o := &Overlay{
		net:    net,
		leaves: make(map[simnet.NodeID]*leafNode),
		byName: make(map[simnet.NodeID]*superNode),
	}
	for i, name := range shuffled {
		if i < nSuper {
			s := &superNode{
				name:  name,
				index: make(map[string][]byte),
			}
			o.supers = append(o.supers, s)
			o.byName[name] = s
			if err := net.Register(name, o.superHandler(s)); err != nil {
				return nil, fmt.Errorf("superpeer: registering %s: %w", name, err)
			}
		}
	}
	// Sort supers by name for a deterministic partition map.
	sort.Slice(o.supers, func(i, j int) bool { return o.supers[i].name < o.supers[j].name })
	for i, name := range shuffled {
		if i >= nSuper {
			leaf := &leafNode{name: name, super: o.supers[i%len(o.supers)].name}
			o.leaves[name] = leaf
			if err := net.Register(name, o.leafHandler()); err != nil {
				return nil, fmt.Errorf("superpeer: registering %s: %w", name, err)
			}
		}
	}
	return o, nil
}

// Name implements overlay.KV.
func (o *Overlay) Name() string { return "semi-structured-superpeer" }

// ownerOf returns the super-peer responsible for a key's index partition.
func (o *Overlay) ownerOf(key string) *superNode {
	h := sha256.Sum256([]byte(key))
	idx := binary.BigEndian.Uint64(h[:8]) % uint64(len(o.supers))
	return o.supers[idx]
}

// RPC message kinds.
const (
	kindPut     = "superpeer.put"
	kindGet     = "superpeer.get"
	kindForward = "superpeer.forward"
)

type putReq struct {
	Key   string
	Value []byte
}
type getReq struct{ Key string }
type getResp struct {
	Found bool
	Value []byte
}

// superHandler handles index operations at a super-peer.
func (o *Overlay) superHandler(s *superNode) simnet.HandlerFunc {
	return func(tr *simnet.Trace, _ simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		switch msg.Kind {
		case kindPut:
			req, ok := msg.Payload.(putReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("superpeer: bad payload")
			}
			owner := o.ownerOf(req.Key)
			if owner == s {
				s.mu.Lock()
				s.index[req.Key] = append([]byte(nil), req.Value...)
				s.mu.Unlock()
				return simnet.Message{Kind: kindPut, Size: 8}, nil
			}
			// Forward to the responsible super-peer.
			return o.net.RPC(tr, s.name, owner.name, simnet.Message{Kind: kindPut, Payload: req, Size: msg.Size})

		case kindGet, kindForward:
			req, ok := msg.Payload.(getReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("superpeer: bad payload")
			}
			owner := o.ownerOf(req.Key)
			if owner == s {
				s.mu.Lock()
				v, found := s.index[req.Key]
				s.mu.Unlock()
				resp := getResp{Found: found}
				if found {
					resp.Value = append([]byte(nil), v...)
				}
				return simnet.Message{Kind: msg.Kind, Payload: resp, Size: 8 + len(resp.Value)}, nil
			}
			if msg.Kind == kindForward {
				// A forward must terminate at the owner; re-forwarding
				// indicates an inconsistent partition map.
				return simnet.Message{}, fmt.Errorf("superpeer: misrouted forward for %q", req.Key)
			}
			return o.net.RPC(tr, s.name, owner.name, simnet.Message{Kind: kindForward, Payload: req, Size: msg.Size})
		}
		return simnet.Message{}, fmt.Errorf("superpeer: unknown message kind %q", msg.Kind)
	}
}

// leafHandler: regular nodes hold no index and serve no queries.
func (o *Overlay) leafHandler() simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, fmt.Errorf("superpeer: leaf node does not serve %q", msg.Kind)
	}
}

// entrySuper returns the super-peer the origin sends its requests to.
func (o *Overlay) entrySuper(origin simnet.NodeID) (simnet.NodeID, bool, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if s, ok := o.byName[origin]; ok {
		return s.name, true, nil
	}
	if l, ok := o.leaves[origin]; ok {
		return l.super, false, nil
	}
	return "", false, fmt.Errorf("superpeer: %w: %s", overlay.ErrUnknownOrigin, origin)
}

// Store implements overlay.KV.
func (o *Overlay) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	tr := &simnet.Trace{}
	entry, isSuper, err := o.entrySuper(simnet.NodeID(origin))
	if err != nil {
		return overlay.OpStats{}, err
	}
	msg := simnet.Message{Kind: kindPut, Payload: putReq{Key: key, Value: value}, Size: len(key) + len(value)}
	if isSuper {
		// Local super-peer handles directly (may forward internally).
		h := o.byName[entry]
		owner := o.ownerOf(key)
		if owner == h {
			h.mu.Lock()
			h.index[key] = append([]byte(nil), value...)
			h.mu.Unlock()
			return *tr, nil
		}
		if _, err := o.net.RPC(tr, entry, owner.name, msg); err != nil {
			return *tr, err
		}
		return *tr, nil
	}
	if _, err := o.net.RPC(tr, simnet.NodeID(origin), entry, msg); err != nil {
		return *tr, err
	}
	return *tr, nil
}

// Lookup implements overlay.KV.
func (o *Overlay) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	entry, isSuper, err := o.entrySuper(simnet.NodeID(origin))
	if err != nil {
		return nil, overlay.OpStats{}, err
	}
	var reply simnet.Message
	if isSuper {
		h := o.byName[entry]
		owner := o.ownerOf(key)
		if owner == h {
			h.mu.Lock()
			v, found := h.index[key]
			h.mu.Unlock()
			if !found {
				return nil, *tr, overlay.ErrNotFound
			}
			return append([]byte(nil), v...), *tr, nil
		}
		reply, err = o.net.RPC(tr, entry, owner.name, simnet.Message{Kind: kindForward, Payload: getReq{Key: key}, Size: len(key)})
	} else {
		reply, err = o.net.RPC(tr, simnet.NodeID(origin), entry, simnet.Message{Kind: kindGet, Payload: getReq{Key: key}, Size: len(key)})
	}
	if err != nil {
		return nil, *tr, err
	}
	resp, ok := reply.Payload.(getResp)
	if !ok {
		return nil, *tr, fmt.Errorf("superpeer: bad get reply")
	}
	if !resp.Found {
		return nil, *tr, overlay.ErrNotFound
	}
	return resp.Value, *tr, nil
}
