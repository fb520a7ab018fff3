package simnet

import (
	"fmt"
	"math/rand"
)

// This file implements seeded fault schedules: deterministic churn (up/down
// windows per node), driven in discrete ticks between operations.
// Experiments advance the schedule themselves so the exact fault pattern is
// reproducible from the seed alone.

// meanOnline is the mean length, in ticks, of one online window
// (geometric). Offline window lengths follow from ChurnConfig.Uptime.
const meanOnline = 20

// ChurnConfig parameterizes a FaultSchedule.
type ChurnConfig struct {
	// Seed drives the schedule independently of the network's own RNG, so
	// two systems under test can face an identical fault pattern.
	Seed int64
	// Uptime is the steady-state fraction of ticks each node is online,
	// in (0, 1]. 1 disables churn.
	Uptime float64
}

// FaultSchedule applies a deterministic churn pattern to a network, one
// tick at a time. It is not safe for concurrent use; drive it from the
// experiment loop.
type FaultSchedule struct {
	net    *Network
	cfg    ChurnConfig
	rng    *rand.Rand
	nodes  []NodeID
	online map[NodeID]bool
	pDown  float64
	pUp    float64
}

// NewFaultSchedule builds a schedule over the given nodes (all must be
// registered). Nodes excluded from the slice — typically the experiment's
// client — are never churned.
func NewFaultSchedule(net *Network, nodes []NodeID, cfg ChurnConfig) (*FaultSchedule, error) {
	if cfg.Uptime <= 0 || cfg.Uptime > 1 {
		return nil, fmt.Errorf("simnet: churn uptime %v out of (0,1]", cfg.Uptime)
	}
	s := &FaultSchedule{
		net:    net,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		nodes:  append([]NodeID(nil), nodes...),
		online: make(map[NodeID]bool, len(nodes)),
	}
	// Two-state Markov chain per node: P(down|online) = 1/meanOnline and
	// P(up|offline) chosen so the stationary online fraction equals Uptime.
	s.pDown = 1.0 / meanOnline
	if cfg.Uptime < 1 {
		s.pUp = s.pDown * cfg.Uptime / (1 - cfg.Uptime)
		if s.pUp > 1 {
			s.pUp = 1
		}
	}
	for _, id := range s.nodes {
		if !net.Online(id) {
			return nil, fmt.Errorf("simnet: churn over node %s: not registered and online", id)
		}
		s.online[id] = true
	}
	return s, nil
}

// Tick advances the schedule by one step, applying up/down transitions. It
// returns the number of state transitions applied this tick.
func (s *FaultSchedule) Tick() int {
	transitions := 0
	if s.cfg.Uptime < 1 {
		for _, id := range s.nodes {
			if s.online[id] {
				if s.rng.Float64() < s.pDown {
					_ = s.net.SetOnline(id, false)
					s.online[id] = false
					transitions++
				}
			} else if s.rng.Float64() < s.pUp {
				_ = s.net.SetOnline(id, true)
				s.online[id] = true
				transitions++
			}
		}
	}
	return transitions
}

// Restore brings every scheduled node back online (end-of-experiment
// cleanup).
func (s *FaultSchedule) Restore() {
	for _, id := range s.nodes {
		_ = s.net.SetOnline(id, true)
		s.online[id] = true
	}
}
