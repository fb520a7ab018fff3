// Package core composes the godosn substrates into a running distributed
// online social network: identities and out-of-band key distribution,
// a social graph, a pluggable overlay for storage/lookup, per-user
// hash-chained timelines and fork-consistent walls, the six Table-I privacy
// schemes for group access control, and the secure-search mechanisms of
// Section V.
//
// This is the framework-level reproduction of the paper: a DOSN in which
// every classified security solution is present and composable. A Network
// is the whole simulated deployment; a Node is one user's view of it.
package core

import (
	"errors"
	"fmt"
	"sync"

	"godosn/internal/crypto/historytree"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/federation"
	"godosn/internal/overlay/gossip"
	"godosn/internal/overlay/hybrid"
	"godosn/internal/overlay/simnet"
	"godosn/internal/overlay/superpeer"
	"godosn/internal/resilience"
	"godosn/internal/search/trustrank"
	"godosn/internal/social/graph"
	"godosn/internal/social/identity"
	"godosn/internal/stack"
	"godosn/internal/telemetry"
)

// Errors returned by this package.
var (
	ErrUnknownUser   = errors.New("core: unknown user")
	ErrUnknownGroup  = errors.New("core: unknown group")
	ErrDuplicateName = errors.New("core: name already in use")
)

// OverlayKind selects the Section II-B architecture for the network's
// control/storage overlay.
type OverlayKind int

// Overlay kinds.
const (
	OverlayDHT OverlayKind = iota + 1
	OverlayGossip
	OverlaySuperPeer
	OverlayHybrid
	OverlayFederation
)

// String renders the overlay kind.
func (k OverlayKind) String() string {
	switch k {
	case OverlayDHT:
		return "structured-dht"
	case OverlayGossip:
		return "unstructured-gossip"
	case OverlaySuperPeer:
		return "semi-structured-superpeer"
	case OverlayHybrid:
		return "hybrid"
	case OverlayFederation:
		return "server-federation"
	default:
		return fmt.Sprintf("overlay(%d)", int(k))
	}
}

// Config parameterizes a Network.
type Config struct {
	// Seed drives every randomized component deterministically.
	Seed int64
	// Overlay selects the architecture (default OverlayDHT).
	Overlay OverlayKind
	// Users are the initial user names.
	Users []string
	// Friendships seeds the social graph; trust defaults to 0.8 when zero.
	Friendships []Friendship
	// ReplicationFactor configures DHT-style replication (default 2).
	ReplicationFactor int
	// Resilience, when non-nil, wraps the overlay in the recovery layer
	// (typed-fault retries, hedged replica reads, circuit breaking): all
	// node traffic then goes through the decorator. Use
	// resilience.DefaultConfig(seed) as a starting point. Its Verify is
	// replaced by the network's record check (checksum, key binding, owner
	// signature), the same one every post read opens through.
	Resilience *resilience.Config
}

// Friendship is one social edge.
type Friendship struct {
	A, B  string
	Trust float64
}

// Network is a whole simulated DOSN deployment.
type Network struct {
	// Registry is the out-of-band key directory.
	Registry *identity.Registry
	// Graph is the social graph.
	Graph *graph.Graph
	// Sim is the underlying simulated network.
	Sim *simnet.Network
	// KV is the overlay used for content storage/lookup.
	KV overlay.KV
	// Telemetry is the deployment-wide metrics registry and event log. The
	// simnet and (when configured) the resilience layer report into it;
	// layers built on top (scrubbers, experiments) should register here
	// too, so one snapshot carries the whole deployment's accounting.
	Telemetry *telemetry.Registry

	mu    sync.RWMutex
	kind  OverlayKind
	nodes map[string]*Node

	wallStorage *historytree.Server
	storageVK   pubkey.VerificationKey
	ranker      *trustrank.Ranker
}

// NewNetwork builds a deployment from the config: users, keys, social graph,
// and the selected overlay.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Overlay == 0 {
		cfg.Overlay = OverlayDHT
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = 2
	}
	if len(cfg.Users) == 0 {
		return nil, overlay.ErrNoNodes
	}
	storageKey, err := pubkey.NewSigningKeyPair()
	if err != nil {
		return nil, fmt.Errorf("core: creating storage key: %w", err)
	}
	n := &Network{
		Registry:    identity.NewRegistry(),
		Graph:       graph.New(),
		Telemetry:   telemetry.NewRegistry(),
		kind:        cfg.Overlay,
		nodes:       make(map[string]*Node),
		wallStorage: historytree.NewServer(storageKey),
		storageVK:   storageKey.Verification(),
	}
	n.ranker = trustrank.New(n.Graph, trustrank.DefaultConfig())

	names := make([]simnet.NodeID, len(cfg.Users))
	for i, u := range cfg.Users {
		names[i] = simnet.NodeID(u)
	}
	// Social graph first (the hybrid overlay wants friend edges).
	for _, u := range cfg.Users {
		n.Graph.AddUser(u)
	}
	for _, f := range cfg.Friendships {
		trust := f.Trust
		if trust == 0 {
			trust = 0.8
		}
		if err := n.Graph.Befriend(f.A, f.B, trust); err != nil {
			return nil, fmt.Errorf("core: friendship %s-%s: %w", f.A, f.B, err)
		}
	}
	spec := stack.Spec{
		Names:    names,
		Net:      simnet.DefaultConfig(cfg.Seed),
		DHT:      dht.Config{ReplicationFactor: cfg.ReplicationFactor},
		Registry: n.Telemetry,
	}
	if cfg.Overlay != OverlayDHT {
		spec.Overlay = func(net *simnet.Network, names []simnet.NodeID) (overlay.KV, error) {
			return n.buildOverlay(cfg, net, names)
		}
	}
	if cfg.Resilience != nil {
		rcfg := *cfg.Resilience
		if rcfg.Seed == 0 {
			rcfg.Seed = cfg.Seed
		}
		// Every replica read goes through the record check, so a forged
		// or tampered copy is a FaultCorruption served from another replica.
		rcfg.Verify = func(key string, record []byte) error {
			_, err := n.openRecord(key, record)
			return err
		}
		spec.Resilience = &rcfg
	}
	st, err := stack.Build(spec)
	if err != nil {
		return nil, err
	}
	n.Sim, n.KV = st.Net, st.Overlay
	if st.KV != nil {
		n.KV = st.KV
	}
	for _, u := range cfg.Users {
		if _, err := n.addUser(u); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// buildOverlay constructs the non-DHT architectures on the stack's network;
// the DHT is stack.Build's default overlay.
func (n *Network) buildOverlay(cfg Config, net *simnet.Network, names []simnet.NodeID) (overlay.KV, error) {
	switch cfg.Overlay {
	case OverlayGossip:
		return gossip.New(net, names, gossip.DefaultConfig())
	case OverlaySuperPeer:
		return superpeer.New(net, names, superpeer.DefaultConfig())
	case OverlayHybrid:
		friends := make(map[simnet.NodeID][]simnet.NodeID, len(names))
		for _, name := range names {
			for _, f := range n.Graph.Friends(string(name)) {
				friends[name] = append(friends[name], simnet.NodeID(f))
			}
		}
		hcfg := hybrid.DefaultConfig()
		hcfg.DHT.ReplicationFactor = cfg.ReplicationFactor
		return hybrid.New(net, names, friends, hcfg)
	case OverlayFederation:
		return federation.New(net, names, federation.DefaultConfig())
	default:
		return nil, fmt.Errorf("core: unknown overlay kind %d", cfg.Overlay)
	}
}

// addUser creates the user's node, keys and wall.
func (n *Network) addUser(name string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateName, name)
	}
	u, err := identity.NewUser(name)
	if err != nil {
		return nil, err
	}
	if err := n.Registry.Register(u); err != nil {
		return nil, err
	}
	node := newNode(n, u)
	n.nodes[name] = node
	return node, nil
}

// Node returns a user's node.
func (n *Network) Node(name string) (*Node, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	node, ok := n.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, name)
	}
	return node, nil
}

// MustNode returns a user's node, panicking on unknown users; for examples
// and tests where absence is a programming error.
func (n *Network) MustNode(name string) *Node {
	node, err := n.Node(name)
	if err != nil {
		panic(err)
	}
	return node
}

// Users lists the network's users.
func (n *Network) Users() []string { return n.Graph.Users() }

// OverlayKind reports the architecture in use.
func (n *Network) OverlayKind() OverlayKind { return n.kind }

// SetOnline injects churn for a user's overlay node. Unknown overlay nodes
// are rejected (simnet validates registration).
func (n *Network) SetOnline(name string, online bool) error {
	if err := n.Sim.SetOnline(simnet.NodeID(name), online); err != nil {
		return err
	}
	if n.kind == OverlayHybrid {
		return n.Sim.SetOnline(hybrid.CacheIdentity(simnet.NodeID(name)), online)
	}
	return nil
}

// Heal runs one anti-entropy repair pass on the overlay, re-replicating
// keys left under-replicated by churn. It reports ErrNoHealer (via the
// resilience layer) or an unsupported-overlay error when the architecture
// has no repair pass.
func (n *Network) Heal() (overlay.HealReport, error) {
	if h, ok := n.KV.(overlay.Healer); ok {
		return h.Heal()
	}
	return overlay.HealReport{}, fmt.Errorf("core: overlay %s cannot heal", n.KV.Name())
}

// ResilienceMetrics returns the recovery-layer counters, or false when the
// network was built without the resilience layer.
func (n *Network) ResilienceMetrics() (resilience.Metrics, bool) {
	if rk, ok := n.KV.(*resilience.KV); ok {
		return rk.Metrics(), true
	}
	return resilience.Metrics{}, false
}
