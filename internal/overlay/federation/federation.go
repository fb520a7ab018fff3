// Package federation implements the server-federation architecture of the
// paper's Section II-B: users' data is "distribute[d] among several servers
// which are running on separate storage entity. In this way none of them
// will have a complete global view of the private data stored in the
// system."
//
// Users are assigned to home servers (as in Diaspora pods or Mastodon
// instances); a lookup goes client -> home server -> responsible server, a
// constant three-message path.
package federation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

// Config parameterizes the federation.
type Config struct {
	// Servers is the number of federated servers (at least 1).
	Servers int
}

// DefaultConfig federates across 8 servers.
func DefaultConfig() Config { return Config{Servers: 8} }

type server struct {
	name simnet.NodeID

	mu   sync.Mutex
	data map[string][]byte
}

// Federation is the server-federation overlay.
type Federation struct {
	net     *simnet.Network
	servers []*server

	mu    sync.RWMutex
	homes map[simnet.NodeID]simnet.NodeID // client -> home server
}

var _ overlay.KV = (*Federation)(nil)

// New builds the federation: cfg.Servers synthetic server nodes are created
// and registered, and each client in names is assigned a home server.
func New(net *simnet.Network, names []simnet.NodeID, cfg Config) (*Federation, error) {
	if len(names) == 0 {
		return nil, overlay.ErrNoNodes
	}
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	f := &Federation{net: net, homes: make(map[simnet.NodeID]simnet.NodeID)}
	for i := 0; i < cfg.Servers; i++ {
		s := &server{
			name: simnet.NodeID(fmt.Sprintf("server-%d", i)),
			data: make(map[string][]byte),
		}
		f.servers = append(f.servers, s)
		if err := net.Register(s.name, f.serverHandler(s)); err != nil {
			return nil, fmt.Errorf("federation: registering %s: %w", s.name, err)
		}
	}
	for i, name := range names {
		f.homes[name] = f.servers[i%cfg.Servers].name
		if err := net.Register(name, clientHandler()); err != nil {
			return nil, fmt.Errorf("federation: registering %s: %w", name, err)
		}
	}
	return f, nil
}

// Name implements overlay.KV.
func (f *Federation) Name() string { return "server-federation" }

// ownerOf maps a key to its responsible server.
func (f *Federation) ownerOf(key string) *server {
	h := sha256.Sum256([]byte(key))
	return f.servers[binary.BigEndian.Uint64(h[:8])%uint64(len(f.servers))]
}

// RPC message kinds.
const (
	kindPut = "federation.put"
	kindGet = "federation.get"
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

func (f *Federation) serverHandler(s *server) simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		switch msg.Kind {
		case kindPut:
			req, ok := msg.Payload.(putReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("federation: bad payload")
			}
			owner := f.ownerOf(req.Key)
			if owner != s {
				// Server-to-server forwarding.
				return f.net.RPC(tr, s.name, owner.name, msg)
			}
			s.mu.Lock()
			s.data[req.Key] = append([]byte(nil), req.Value...)
			s.mu.Unlock()
			return simnet.Message{Kind: kindPut, Size: 8}, nil

		case kindGet:
			req, ok := msg.Payload.(getReq)
			if !ok {
				return simnet.Message{}, fmt.Errorf("federation: bad payload")
			}
			owner := f.ownerOf(req.Key)
			if owner != s {
				return f.net.RPC(tr, s.name, owner.name, msg)
			}
			s.mu.Lock()
			v, found := s.data[req.Key]
			s.mu.Unlock()
			resp := getResp{Found: found}
			if found {
				resp.Value = append([]byte(nil), v...)
			}
			return simnet.Message{Kind: kindGet, Payload: resp, Size: 8 + len(resp.Value)}, nil
		}
		return simnet.Message{}, fmt.Errorf("federation: unknown message kind %q", msg.Kind)
	}
}

func clientHandler() simnet.HandlerFunc {
	return func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, fmt.Errorf("federation: clients do not serve requests")
	}
}

// home returns the origin's home server.
func (f *Federation) home(origin simnet.NodeID) (simnet.NodeID, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	h, ok := f.homes[origin]
	if !ok {
		return "", fmt.Errorf("federation: %w: %s", overlay.ErrUnknownOrigin, origin)
	}
	return h, nil
}

// Store implements overlay.KV: client -> home server -> owning server.
func (f *Federation) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	tr := &simnet.Trace{}
	home, err := f.home(simnet.NodeID(origin))
	if err != nil {
		return overlay.OpStats{}, err
	}
	_, err = f.net.RPC(tr, simnet.NodeID(origin), home, simnet.Message{
		Kind:    kindPut,
		Payload: putReq{Key: key, Value: value},
		Size:    len(key) + len(value),
	})
	return *tr, err
}

// Lookup implements overlay.KV.
func (f *Federation) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	tr := &simnet.Trace{}
	home, err := f.home(simnet.NodeID(origin))
	if err != nil {
		return nil, overlay.OpStats{}, err
	}
	reply, err := f.net.RPC(tr, simnet.NodeID(origin), home, simnet.Message{
		Kind:    kindGet,
		Payload: getReq{Key: key},
		Size:    len(key),
	})
	if err != nil {
		return nil, *tr, err
	}
	resp, ok := reply.Payload.(getResp)
	if !ok {
		return nil, *tr, fmt.Errorf("federation: bad get reply")
	}
	if !resp.Found {
		return nil, *tr, overlay.ErrNotFound
	}
	return resp.Value, *tr, nil
}
