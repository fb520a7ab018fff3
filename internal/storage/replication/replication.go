// Package replication models data availability through replica placement
// under churn — the core operational concern of DOSNs.
//
// Paper, Section I: "The main obstacle of decentralization is that users are
// responsible for their data availability. Users, their friends, or other
// peers need to be online for better availability. Also, proxy nodes can be
// used for storing users' data"; and "replication and caching are proven
// techniques to ensure availability". Experiment E7 sweeps replication
// factor against node uptime and measures retrieval success, which this
// package implements.
package replication

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"godosn/internal/storage/store"
)

// Errors returned by this package.
var (
	ErrNoReplicas   = errors.New("replication: object has no replica set")
	ErrNoneOnline   = errors.New("replication: no replica online")
	ErrUnknownPeer  = errors.New("replication: unknown peer")
	ErrNoPeers      = errors.New("replication: no peers registered")
	ErrBadReplicas  = errors.New("replication: replication factor must be >= 1")
	ErrObjectAbsent = errors.New("replication: replica does not hold object")
)

// PlacementPolicy selects which peers replicate an object.
type PlacementPolicy int

// Placement policies. RandomPeers spreads across the network; FriendPeers
// prefers the owner's friends ("users, their friends, or other peers");
// ProxyPeers models dedicated always-on proxy/storage nodes.
const (
	RandomPeers PlacementPolicy = iota + 1
	FriendPeers
	ProxyPeers
)

// String renders the policy name.
func (p PlacementPolicy) String() string {
	switch p {
	case RandomPeers:
		return "random"
	case FriendPeers:
		return "friends"
	case ProxyPeers:
		return "proxies"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Peer is a storage participant.
type Peer struct {
	// Name identifies the peer.
	Name string
	// Online is the peer's current liveness.
	Online bool
	// IsProxy marks dedicated storage nodes with high uptime.
	IsProxy bool
	// Store holds the peer's replicas.
	Store *store.Store
}

// Manager tracks peers and replica sets. It is not safe for concurrent use;
// experiments drive it single-threaded.
type Manager struct {
	rng      *rand.Rand
	peers    map[string]*Peer
	order    []string // deterministic iteration order
	friends  map[string][]string
	replicas map[store.Ref][]string
}

// NewManager creates a manager with a deterministic RNG seed.
func NewManager(seed int64) *Manager {
	return &Manager{
		rng:      rand.New(rand.NewSource(seed)),
		peers:    make(map[string]*Peer),
		friends:  make(map[string][]string),
		replicas: make(map[store.Ref][]string),
	}
}

// AddPeer registers a peer (online, non-proxy by default).
func (m *Manager) AddPeer(name string) *Peer {
	if p, ok := m.peers[name]; ok {
		return p
	}
	p := &Peer{Name: name, Online: true, Store: store.NewStore()}
	m.peers[name] = p
	m.order = append(m.order, name)
	return p
}

// AddProxy registers a dedicated proxy storage node.
func (m *Manager) AddProxy(name string) *Peer {
	p := m.AddPeer(name)
	p.IsProxy = true
	return p
}

// SetFriends records the owner's friend list for FriendPeers placement.
func (m *Manager) SetFriends(owner string, friends []string) {
	m.friends[owner] = append([]string(nil), friends...)
}

// SetOnline flips a peer's liveness (churn injection).
func (m *Manager) SetOnline(name string, online bool) error {
	p, ok := m.peers[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, name)
	}
	p.Online = online
	return nil
}

// Place replicates an object from its owner onto k peers chosen by policy.
// The owner itself always holds a copy (not counted in k).
func (m *Manager) Place(owner string, obj store.Object, k int, policy PlacementPolicy) ([]string, error) {
	if k < 1 {
		return nil, ErrBadReplicas
	}
	op, ok := m.peers[owner]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, owner)
	}
	if err := op.Store.Put(obj); err != nil {
		return nil, err
	}
	candidates := m.candidates(owner, policy)
	if len(candidates) == 0 {
		return nil, ErrNoPeers
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	m.rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	chosen := candidates[:k]
	sort.Strings(chosen)
	for _, name := range chosen {
		if err := m.peers[name].Store.Put(obj); err != nil {
			return nil, err
		}
	}
	set := append([]string{owner}, chosen...)
	m.replicas[obj.Ref] = set
	return set, nil
}

// candidates lists placement candidates for the policy, excluding the owner.
func (m *Manager) candidates(owner string, policy PlacementPolicy) []string {
	var out []string
	switch policy {
	case FriendPeers:
		for _, f := range m.friends[owner] {
			if _, ok := m.peers[f]; ok && f != owner {
				out = append(out, f)
			}
		}
	case ProxyPeers:
		for _, name := range m.order {
			if p := m.peers[name]; p.IsProxy && name != owner {
				out = append(out, name)
			}
		}
	default: // RandomPeers
		for _, name := range m.order {
			if p := m.peers[name]; !p.IsProxy && name != owner {
				out = append(out, name)
			}
		}
	}
	return out
}

// Retrieve fetches an object from any online replica. It reports which
// replica served the request.
func (m *Manager) Retrieve(ref store.Ref) (store.Object, string, error) {
	set, ok := m.replicas[ref]
	if !ok {
		return store.Object{}, "", fmt.Errorf("%w: %s", ErrNoReplicas, ref)
	}
	for _, name := range set {
		p := m.peers[name]
		if p == nil || !p.Online {
			continue
		}
		obj, err := p.Store.Get(ref)
		if err != nil {
			return store.Object{}, "", fmt.Errorf("%w: %s@%s", ErrObjectAbsent, ref, name)
		}
		if err := obj.Verify(); err != nil {
			return store.Object{}, "", err
		}
		return obj, name, nil
	}
	return store.Object{}, "", ErrNoneOnline
}

// ApplyChurn samples each non-proxy peer's liveness from uptime (probability
// of being online); proxies stay online. Deterministic given the manager's
// seed and call sequence.
func (m *Manager) ApplyChurn(uptime float64) {
	for _, name := range m.order {
		p := m.peers[name]
		if p.IsProxy {
			p.Online = true
			continue
		}
		p.Online = m.rng.Float64() < uptime
	}
}

// Availability runs trials retrievals of ref under repeated churn sampling
// at the given uptime and returns the success fraction — experiment E7's
// measurement primitive.
func (m *Manager) Availability(ref store.Ref, uptime float64, trials int) float64 {
	if trials <= 0 {
		return 0
	}
	success := 0
	for i := 0; i < trials; i++ {
		m.ApplyChurn(uptime)
		if _, _, err := m.Retrieve(ref); err == nil {
			success++
		}
	}
	return float64(success) / float64(trials)
}
