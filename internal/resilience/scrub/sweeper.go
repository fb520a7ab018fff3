package scrub

import (
	"strings"
	"sync"

	"godosn/internal/telemetry"
)

// This file implements the Sweeper: a tick-driven, rate-limited continuous
// scrub scheduler. Instead of the on-demand full key-list walk (Scrub over
// everything, whenever someone remembers to call it), the Sweeper
// round-robins the keyspace in fixed chunks under a hard per-tick message
// budget, and re-scrubs chunks early — through a priority queue, the one
// repair queue — when a bad verdict or a suspect key implicates them: a
// divergent pass re-enqueues its chunk, and NoteSuspect takes the keys of
// writes acked short of their replicas.
//
// The budget is enforced by pre-charging, not by measuring after the fact:
// replica sets are planned from local overlay state (Planner, zero network
// cost), the pass's worst-case message count is computed with
// Scrubber.WorstCaseMessages, and a chunk is only started when the already
// spent messages plus that worst case fit the budget. A tick can therefore
// never exceed its budget, by construction. A chunk whose lone worst case
// exceeds the whole budget can never run; it is counted as starved and
// skipped rather than wedging the sweep.

// Planner resolves a key's replica candidate set from local state, free of
// network cost. dht.PlanReplicas implements it; any overlay with a global
// view can.
type Planner interface {
	PlanReplicas(key string) []string
}

// SweepConfig parameterizes a Sweeper.
type SweepConfig struct {
	// Budget is the per-tick message budget: a Tick never starts a chunk
	// whose worst-case cost would push the tick's total past Budget.
	// <= 0 disables budgeting — each tick then scrubs exactly one chunk.
	Budget int
	// ChunkKeys is the number of keys per sweep chunk (default 16).
	ChunkKeys int
}

// SweepReport summarizes one Sweeper tick.
type SweepReport struct {
	// Tick is the 1-based tick number.
	Tick int
	// Chunks is the number of chunks scrubbed this tick.
	Chunks int
	// Keys is the number of keys scanned this tick.
	Keys int
	// Msgs is the number of network messages actually spent this tick —
	// always <= Budget when budgeting is on.
	Msgs int
	// Worst is the sum of the pre-charged worst cases of the chunks run.
	Worst int
	// Priority is how many of the scrubbed chunks came from the priority
	// queue rather than the cursor.
	Priority int
	// Starved counts chunks skipped because their lone worst case exceeds
	// the entire budget — they can never run at this budget.
	Starved int
	// Divergent, Repaired, and Failed aggregate the underlying scrub
	// reports.
	Divergent int
	Repaired  int
	Failed    int
	// Reports are the per-chunk scrub reports, in execution order.
	Reports []Report
}

// Sweeper schedules continuous scrubbing over a registered keyspace. Drive
// it from one goroutine (the simulation tick loop); only NoteSuspect may be
// called from others.
type Sweeper struct {
	sc      *Scrubber
	planner Planner
	cfg     SweepConfig

	chunks  [][]string     // fixed partition of the keyspace, registration order
	chunkOf map[string]int // key -> chunk index
	seen    map[string]bool
	cursor  int // next cursor chunk

	prio   []int // priority queue: chunk indices, FIFO
	queued map[int]bool

	// intake holds NoteSuspect's keys, in arrival order, until the tick
	// goroutine moves their chunks to the queue (admit).
	intakeMu sync.Mutex
	intake   []string

	ticks int

	tel *sweepTelemetry
}

// sweepTelemetry holds the sweeper's resolved registry instruments.
type sweepTelemetry struct {
	position *telemetry.Gauge
	ticks    *telemetry.Counter
	chunks   *telemetry.Counter
	keys     *telemetry.Counter
	msgs     *telemetry.Counter
	priority *telemetry.Counter
	starved  *telemetry.Counter
}

// NewSweeper builds a sweeper over the scrubber and planner. keys seed the
// keyspace (deduplicated, first-occurrence order — chunk formation follows
// it); more can be added later with AddKeys.
func NewSweeper(sc *Scrubber, planner Planner, keys []string, cfg SweepConfig) *Sweeper {
	if cfg.ChunkKeys < 1 {
		cfg.ChunkKeys = 16
	}
	s := &Sweeper{
		sc:      sc,
		planner: planner,
		cfg:     cfg,
		chunkOf: make(map[string]int),
		seen:    make(map[string]bool),
		queued:  make(map[int]bool),
	}
	s.AddKeys(keys...)
	return s
}

// SetTelemetry mirrors the sweeper's per-tick accounting into reg.
func (s *Sweeper) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = nil
		return
	}
	s.tel = &sweepTelemetry{
		position: reg.Gauge("scrub_sweep_position"),
		ticks:    reg.Counter("scrub_sweep_ticks_total"),
		chunks:   reg.Counter("scrub_sweep_chunks_total"),
		keys:     reg.Counter("scrub_sweep_keys_total"),
		msgs:     reg.Counter("scrub_sweep_msgs_total"),
		priority: reg.Counter("scrub_sweep_priority_total"),
		starved:  reg.Counter("scrub_sweep_starved_total"),
	}
}

// AddKeys registers keys with the sweep (duplicates ignored). New keys fill
// the last chunk up to ChunkKeys, then open new chunks — chunk indices are
// stable once assigned, so cursor and priority state survive growth.
func (s *Sweeper) AddKeys(keys ...string) {
	for _, k := range keys {
		if s.seen[k] {
			continue
		}
		s.seen[k] = true
		last := len(s.chunks) - 1
		if last < 0 || len(s.chunks[last]) >= s.cfg.ChunkKeys {
			s.chunks = append(s.chunks, nil)
			last = len(s.chunks) - 1
		}
		s.chunks[last] = append(s.chunks[last], k)
		s.chunkOf[k] = last
	}
	s.admit()
}

// Keys reports the registered keyspace size; Chunks the chunk count.
func (s *Sweeper) Keys() int   { return len(s.seen) }
func (s *Sweeper) Chunks() int { return len(s.chunks) }

// NoteSuspect marks key's chunk for early re-scrub, ahead of the cursor: a
// write acked short of its replicas (the DHT's short-write hook) lands here.
// It is safe to call from any goroutine, also during Tick. The key waits in
// the intake, and its chunk joins the priority queue at the next AddKeys or
// Tick; a key not registered yet waits for the AddKeys that registers it.
func (s *Sweeper) NoteSuspect(key string) {
	s.intakeMu.Lock()
	s.intake = append(s.intake, key)
	s.intakeMu.Unlock()
}

// admit enqueues the chunks of the intake's registered keys, in arrival
// order, and keeps the unregistered keys for a later AddKeys.
func (s *Sweeper) admit() {
	s.intakeMu.Lock()
	defer s.intakeMu.Unlock()
	held := s.intake[:0]
	for _, key := range s.intake {
		if ci, ok := s.chunkOf[key]; ok {
			s.enqueue(ci)
		} else {
			held = append(held, key)
		}
	}
	clear(s.intake[len(held):])
	s.intake = held
}

// enqueue adds a chunk to the priority queue once.
func (s *Sweeper) enqueue(ci int) {
	if !s.queued[ci] {
		s.queued[ci] = true
		s.prio = append(s.prio, ci)
	}
}

// peek returns the next chunk to consider — priority queue first (FIFO),
// then the cursor — without consuming it. visited chunks are skipped (but
// left queued: a chunk re-implicated mid-tick re-scrubs next tick, not
// twice in one).
func (s *Sweeper) peek(visited map[int]bool) (ci int, fromPrio bool, ok bool) {
	for _, c := range s.prio {
		if !visited[c] {
			return c, true, true
		}
	}
	n := len(s.chunks)
	c := s.cursor
	for i := 0; i < n; i++ {
		if !visited[c] {
			return c, false, true
		}
		c = (c + 1) % n
	}
	return 0, false, false
}

// consume removes a peeked chunk from its source: priority entries leave
// the queue, cursor picks advance the cursor past the chunk.
func (s *Sweeper) consume(ci int, fromPrio bool) {
	if fromPrio {
		for i, c := range s.prio {
			if c == ci {
				s.prio = append(s.prio[:i], s.prio[i+1:]...)
				break
			}
		}
		delete(s.queued, ci)
		return
	}
	s.cursor = (ci + 1) % len(s.chunks)
}

// planChunk forms the chunk's scrub groups from local replica planning:
// keys sharing a planned replica set share a group (first-occurrence
// order, the same bucketing Scrub applies after resolution). Zero network
// cost. Keys whose plan is empty form a headless group that ScrubResolved
// reports as failed.
func (s *Sweeper) planChunk(ci int) []Group {
	bySet := make(map[string]*Group)
	var order []string
	for _, key := range s.chunks[ci] {
		names := s.planner.PlanReplicas(key)
		sig := strings.Join(names, "\x00")
		g, ok := bySet[sig]
		if !ok {
			g = &Group{Replicas: names}
			bySet[sig] = g
			order = append(order, sig)
		}
		g.Keys = append(g.Keys, key)
	}
	groups := make([]Group, 0, len(order))
	for _, sig := range order {
		groups = append(groups, *bySet[sig])
	}
	return groups
}

// Tick runs one budgeted sweep step: chunks are taken from the priority
// queue, then round-robin from the cursor, each pre-charged at its worst
// case and started only if the tick's total stays within Budget. The
// returned report's Msgs never exceeds Budget when budgeting is on.
func (s *Sweeper) Tick() (SweepReport, error) {
	s.ticks++
	rep := SweepReport{Tick: s.ticks}
	if s.tel != nil {
		s.tel.ticks.Inc()
	}
	s.admit()
	if len(s.chunks) == 0 {
		s.noteTick(&rep)
		return rep, nil
	}
	visited := make(map[int]bool)
	for {
		ci, fromPrio, ok := s.peek(visited)
		if !ok {
			break // every chunk already visited this tick
		}
		groups := s.planChunk(ci)
		worst := s.sc.WorstCaseMessages(groups)
		if s.cfg.Budget > 0 {
			if worst > s.cfg.Budget {
				// This chunk can never fit the budget: count it starved
				// and move past it instead of wedging the sweep.
				s.consume(ci, fromPrio)
				visited[ci] = true
				rep.Starved++
				if s.tel != nil {
					s.tel.starved.Inc()
				}
				continue
			}
			if rep.Msgs+worst > s.cfg.Budget {
				break // does not fit this tick; resume here next tick
			}
		}
		s.consume(ci, fromPrio)
		visited[ci] = true
		r, err := s.sc.ScrubResolved(groups)
		if err != nil {
			return rep, err
		}
		rep.Chunks++
		rep.Keys += r.KeysScanned
		rep.Msgs += r.Stats.Messages
		rep.Worst += worst
		rep.Divergent += r.DivergentKeys
		rep.Repaired += r.RepairedWrites
		rep.Failed += r.Failed
		if fromPrio {
			rep.Priority++
		}
		rep.Reports = append(rep.Reports, r)
		if r.DivergentKeys > 0 || r.Failed > 0 || fromPrio && r.UnreachableHolders > 0 {
			// Bad verdict: this chunk re-scrubs early — next tick, through
			// the priority queue. So does a suspect chunk whose pass could
			// not reach every holder: the copy a short write missed may be
			// on the holder it could not reach.
			s.enqueue(ci)
		}
		if s.cfg.Budget <= 0 {
			break // unbudgeted ticks scrub exactly one chunk
		}
	}
	s.noteTick(&rep)
	return rep, nil
}

// noteTick mirrors a finished tick into the registry.
func (s *Sweeper) noteTick(rep *SweepReport) {
	if s.tel == nil {
		return
	}
	s.tel.position.Set(float64(s.cursor))
	s.tel.chunks.Add(int64(rep.Chunks))
	s.tel.keys.Add(int64(rep.Keys))
	s.tel.msgs.Add(int64(rep.Msgs))
	s.tel.priority.Add(int64(rep.Priority))
	s.tel.starved.Add(int64(rep.Starved))
}
