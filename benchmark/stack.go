package main

import (
	"fmt"
	"time"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
)

const (
	ringNodes      = 48
	replication    = 3
	routeCacheSize = 4096
)

// stack is the sealed data path below the harness: resilience.KV over the
// DHT over simnet, with the scrubber beside it, wired the way
// internal/bench/scale.go:runE23Arm and core.Network wire them.
type stack struct {
	net      *simnet.Network
	dht      *dht.DHT
	kv       *resilience.KV
	scrubber *scrub.Scrubber
	nodes    []simnet.NodeID
	// origins[i] is the node client i originates at; recs[i] its recorder
	// (all nil in an untraced repetition).
	origins []string
	recs    []*recorder
}

// newStack builds a 48-node, k=3, lossless, jitter-free ring. With traced
// set, resilience and the scrubber talk to the DHT through the timing
// decorator; otherwise they hold the bare *dht.DHT.
func newStack(seed int64, clients, valueCache int, traced bool, epoch time.Time, spanCap int) (*stack, error) {
	s := &stack{}
	s.net = simnet.New(simnet.Config{Seed: seed, BaseLatency: 10 * time.Millisecond})
	reg := telemetry.NewRegistry()
	s.net.SetTelemetry(reg)
	s.nodes = make([]simnet.NodeID, ringNodes)
	for i := range s.nodes {
		s.nodes[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(s.net, s.nodes, dht.Config{
		ReplicationFactor: replication,
		// Serial replica contact: the seeded loss sequence must not depend
		// on goroutine scheduling, and every span stays on its client's
		// goroutine.
		FanoutWorkers: 1,
		RouteCache:    cache.Config{Capacity: routeCacheSize, Shards: 1, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	d.SetTelemetry(reg)
	s.dht = d
	s.origins = make([]string, clients)
	s.recs = make([]*recorder, clients)
	for i := range s.origins {
		s.origins[i] = string(s.nodes[i])
		if traced {
			s.recs[i] = newRecorder(epoch, spanCap/clients)
		}
	}

	var inner overlay.ReplicaKV = d
	if traced {
		inner = &tracedDHT{DHT: d, recFor: s.recFor}
	}
	cfg := resilience.DefaultConfig(seed)
	cfg.Verify = scrub.Check
	if valueCache > 0 {
		cfg.Cache = cache.Config{Capacity: valueCache, Seed: seed}
	}
	s.kv = resilience.Wrap(inner, cfg)
	s.kv.SetTelemetry(reg)

	// As in core.Network, scrub verdicts do not feed the breaker: a rot
	// burst on honest nodes must not get them quarantined.
	s.scrubber = scrub.New(inner, scrub.DefaultConfig(s.origins[0]))
	s.scrubber.SetTelemetry(reg)
	return s, nil
}

// recFor maps a call's origin node to the recorder of the client that
// originates there; calls that name no client origin (Heal) belong to the
// first client, which runs maintenance.
func (s *stack) recFor(origin string) *recorder {
	for i := 1; i < len(s.origins); i++ {
		if s.origins[i] == origin {
			return s.recs[i]
		}
	}
	return s.recs[0]
}
