// Package stack is the one place that decides how the storage layers are
// wired: simulated network → overlay (the DHT unless the caller brings
// another) → optional resilience decorator → optional integrity scrubber →
// optional continuous sweeper, with every layer it built registered in one
// telemetry registry. Experiments, the scenario runtime and core.Network
// describe the stack they want as a Spec; none of them calls a layer
// constructor itself, so a change to the wiring (a new hook between two
// layers, a layer's telemetry) is made here once.
package stack

import (
	"fmt"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
)

// Spec describes one stack. Every field exists because two shipped callers
// need different values for it (DESIGN.md "Stack assembly" lists them);
// everything else about the wiring is fixed by Build.
type Spec struct {
	// Names are the overlay nodes, in registration order. Names[0] is the
	// client: the origin of scrub traffic and, by convention, of workload
	// operations.
	Names []simnet.NodeID
	// Net configures the simulated network.
	Net simnet.Config
	// Overlay, when set, builds the storage overlay on the fresh network in
	// place of the DHT (core.Network's gossip, super-peer, hybrid and
	// federation kinds). Nil builds dht.New(net, Names, DHT).
	Overlay func(net *simnet.Network, names []simnet.NodeID) (overlay.KV, error)
	// DHT configures the default overlay; ignored when Overlay is set.
	DHT dht.Config
	// Resilience, when non-nil, wraps the overlay in the recovery decorator.
	Resilience *resilience.Config
	// Scrub, when non-nil, builds an integrity scrubber over the overlay
	// (which must address replicas). An empty Origin means the client. With
	// Resilience also set, its per-node verdicts feed the decorator's
	// breaker.
	Scrub *scrub.Config
	// Sweep, when non-nil, builds the continuous sweeper over the scrubber,
	// planning replica groups through the overlay; requires Scrub.
	Sweep *scrub.SweepConfig
	// Registry, when non-nil, receives the telemetry of every layer built.
	Registry *telemetry.Registry
}

// Stack is a built stack. Layers the Spec did not ask for are nil.
type Stack struct {
	// Names echoes Spec.Names; Client is string(Names[0]).
	Names  []simnet.NodeID
	Client string
	// Net is the simulated network every layer runs on.
	Net *simnet.Network
	// Overlay is the storage overlay under the decorator; DHT is the same
	// value when it is the default overlay, nil otherwise.
	Overlay overlay.KV
	DHT     *dht.DHT
	// KV is the resilience decorator.
	KV *resilience.KV
	// Scrub and Sweep are the maintenance plane.
	Scrub *scrub.Scrubber
	Sweep *scrub.Sweeper
}

// NodeNames renders n node names through format (one %d verb), the
// population a Spec registers: "node-%d" for experiments, "n%03d" for
// scenarios.
func NodeNames(format string, n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(fmt.Sprintf(format, i))
	}
	return out
}

// Build assembles the stack bottom-up. The order is part of the contract:
// resilience.Wrap installs its placement filter (quarantine) and replica
// ranker on the overlay it is handed, and when a scrubber and a decorator
// coexist the scrubber's invalidator and verdict hooks close over the
// decorator, so one breaker decides quarantine for reads, scrub passes,
// writes and heal alike. With a sweeper over the DHT, the DHT's short-write
// hook feeds the sweeper's queue, the one repair queue for a write acked
// short of its replicas; without one, Heal's scan finds such a key.
func Build(spec Spec) (*Stack, error) {
	if len(spec.Names) == 0 {
		return nil, overlay.ErrNoNodes
	}
	if spec.Sweep != nil && spec.Scrub == nil {
		return nil, fmt.Errorf("stack: a sweeper needs a scrubber")
	}
	reg := spec.Registry
	s := &Stack{Names: spec.Names, Client: string(spec.Names[0]), Net: simnet.New(spec.Net)}
	s.Net.SetTelemetry(reg)

	if spec.Overlay != nil {
		kv, err := spec.Overlay(s.Net, spec.Names)
		if err != nil {
			return nil, err
		}
		s.Overlay = kv
	} else {
		d, err := dht.New(s.Net, spec.Names, spec.DHT)
		if err != nil {
			return nil, err
		}
		d.SetTelemetry(reg)
		s.Overlay, s.DHT = d, d
	}

	if spec.Resilience != nil {
		s.KV = resilience.Wrap(s.Overlay, *spec.Resilience)
		s.KV.SetTelemetry(reg)
	}

	if spec.Scrub != nil {
		replicas, ok := s.Overlay.(overlay.ReplicaKV)
		if !ok {
			return nil, fmt.Errorf("stack: overlay %s cannot be scrubbed (no replica addressing)", s.Overlay.Name())
		}
		cfg := *spec.Scrub
		if cfg.Origin == "" {
			cfg.Origin = s.Client
		}
		s.Scrub = scrub.New(replicas, cfg)
		s.Scrub.SetTelemetry(reg)
		if s.KV != nil {
			// A scrub verdict against a key drops its cached value, so the
			// next read re-verifies the repaired state; a verdict against a
			// node (one per pass) feeds the breaker that decides quarantine.
			s.Scrub.SetInvalidator(s.KV.InvalidateValue)
			breaker := s.KV.Breaker()
			s.Scrub.SetVerdict(func(node string, ok bool) {
				if ok {
					breaker.Report(node, true)
				} else {
					breaker.ReportCorrupt(node)
				}
			})
		}
	}

	if spec.Sweep != nil {
		planner, ok := s.Overlay.(scrub.Planner)
		if !ok {
			return nil, fmt.Errorf("stack: overlay %s cannot be swept (no replica planner)", s.Overlay.Name())
		}
		s.Sweep = scrub.NewSweeper(s.Scrub, planner, nil, *spec.Sweep)
		s.Sweep.SetTelemetry(reg)
		if s.DHT != nil {
			// A write acked short of its replicas queues its key's chunk
			// for the next tick, ahead of the cursor; the pass pushes the
			// missing copies.
			s.DHT.SetShortWriteHook(s.Sweep.NoteSuspect)
		}
	}
	return s, nil
}
