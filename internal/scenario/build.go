package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/load"
	"godosn/internal/resilience/scrub"
	"godosn/internal/social/identity"
	"godosn/internal/social/privacy"
	"godosn/internal/stack"
	"godosn/internal/telemetry"
	"godosn/internal/workload"
)

// RunConfig parameterizes one execution of a scenario.
type RunConfig struct {
	// Workers is the privacy-group re-encryption worker count (default 1).
	// Scenario results must be identical at any value — that is the
	// "workers 1 vs 8" replay arm.
	Workers int
	// Trace, when set, receives the run's event stream, one traced lookup
	// span per tick, the windowed time-series, and the final registry
	// snapshot. Any telemetry.Sink works: file, socket, OTLP-shaped.
	Trace *telemetry.Sink
	// WindowTicks is the time-series window width in ticks; <= 0 defaults
	// to max(1, Ticks/20), giving about twenty windows per run.
	WindowTicks int
}

// windowWidth resolves the configured window width for a scenario.
func windowWidth(sc *Scenario, rc RunConfig) int {
	if rc.WindowTicks > 0 {
		return rc.WindowTicks
	}
	w := sc.Ticks / 20
	if w < 1 {
		w = 1
	}
	return w
}

// activeWindow is one applied event awaiting revert.
type activeWindow struct {
	ev    Event
	nodes []simnet.NodeID
}

// runState is the mutable machinery of one run.
type runState struct {
	sc      *Scenario
	net     *simnet.Network
	d       *dht.DHT
	kv      *resilience.KV
	names   []simnet.NodeID
	client  string
	stream  *workload.Stream
	res     *Result
	windows []activeWindow

	// celebrity state
	celebFrac float64 // 0 = inactive
	celebRng  *rand.Rand
	firstKey  string // first key ever written: the "celebrity profile"

	// privacy state
	group   *privacy.HybridGroup
	byName  map[string]*identity.User
	revoked []*identity.User

	// written tracks keys whose store succeeded, so a later "not found"
	// for one of them is classified as data unavailability, not an honest
	// miss. writtenOrder keeps the same keys in first-success order — the
	// deterministic keyspace the rot injector samples and the sweeper
	// chunks; sweepAdded marks how many of them the sweeper has registered.
	written      map[string]bool
	writtenOrder []string

	// sweep state (nil unless the scenario configures the sweeper)
	sweeper    *scrub.Sweeper
	sweepAdded int

	// window bookkeeping: win is the registry time-series collector,
	// ticked at the end of each tick body (after the tick's workload, so
	// window k holds exactly ticks [k·W, (k+1)·W)); winBase snapshots the
	// Result counters at the open window's start so close diffs them.
	win          *telemetry.Windows
	winWidth     int
	winFrom      int
	winBase      windowBase
	eventsSorted []Event
}

// windowBase records the Result counter values at a window's start.
type windowBase struct {
	writes, writeFailures                int
	reads, ok, notFound, falseNF, failed int
	surfaced                             int
	memberOpens, memberFails             int
	revokedAttempts, revokedOpens        int
	latLen                               int
	sheds                                int64
}

// newRunState builds everything a run needs before its first tick: the
// storage stack, the workload stream, the privacy group, and the window
// bookkeeping, all reporting into reg.
func newRunState(sc *Scenario, rc RunConfig, reg *telemetry.Registry, workers int) (*runState, error) {
	kcfg := resilience.DefaultConfig(sc.Seed + 7)
	kcfg.Verify = scrub.Check
	kcfg.Health = load.TrackerConfig{Alpha: 0.3, HalfLife: 8}
	spec := stack.Spec{
		Names: stack.NodeNames("n%03d", sc.Nodes), // node 0 is the client origin
		Net:   simnet.Config{Seed: sc.Seed, BaseLatency: 10 * time.Millisecond},
		DHT: dht.Config{
			ReplicationFactor: sc.Replication,
			// Serial batch groups: concurrent groups on a lossy network make
			// seeded drop assignment scheduling-dependent.
			FanoutWorkers: 1,
			NodeGate:      load.GateConfig{PerTick: sc.GatePerTick, QueueDepth: sc.GateQueue},
		},
		Resilience: &kcfg,
		Registry:   reg,
	}
	if sc.SweepChunk > 0 {
		// Continuous scrub: one budgeted sweeper tick per scenario tick over
		// the written keyspace, planned through the DHT's network-free
		// replica view. Scrub workers stay at 1; scrub results are
		// worker-count independent by contract, but the scenario runtime
		// keeps every knob that could matter pinned. The scrubber's per-node
		// verdicts feed the decorator's breaker, as in every stack.
		scfg := scrub.DefaultConfig("")
		spec.Scrub = &scfg
		spec.Sweep = &scrub.SweepConfig{Budget: sc.SweepBudget, ChunkKeys: sc.SweepChunk}
	}
	built, err := stack.Build(spec)
	if err != nil {
		return nil, err
	}

	weighting := workload.WeightZipf
	if sc.GraphWeighted {
		weighting = workload.WeightGraph
	}
	stream, err := workload.NewStream(workload.StreamConfig{
		Users:     sc.Users,
		Ops:       sc.Ticks * sc.OpsPerTick,
		Seed:      sc.Seed + 101,
		Weighting: weighting,
	})
	if err != nil {
		return nil, err
	}

	st := &runState{
		sc:       sc,
		net:      built.Net,
		d:        built.DHT,
		kv:       built.KV,
		names:    built.Names,
		client:   built.Client,
		stream:   stream,
		res:      &Result{Digest: fnvOffset64, ServerShedsByNode: map[string]int64{}},
		celebRng: rand.New(rand.NewSource(sc.Seed + 11)),
		written:  make(map[string]bool),
		sweeper:  built.Sweep,
	}
	if sc.Readers > 0 {
		if err := st.setupPrivacy(workers); err != nil {
			return nil, err
		}
	}
	events := append([]Event(nil), sc.Events...)
	sortEvents(events)
	st.eventsSorted = events
	st.winWidth = windowWidth(sc, rc)
	st.win = telemetry.NewWindows(reg, telemetry.WindowsConfig{
		Width:  st.winWidth,
		Retain: sc.Ticks/st.winWidth + 2, // keep every window of the run
	})
	st.snapBase()
	return st, nil
}

// setupPrivacy builds the hybrid group with Readers members. Identity
// keygen uses crypto/rand (ed25519) — fine, because no Result field
// derives from key material.
func (st *runState) setupPrivacy(workers int) error {
	registry := identity.NewRegistry()
	owner, err := identity.NewUser("owner")
	if err != nil {
		return err
	}
	st.byName = make(map[string]*identity.User, st.sc.Readers)
	group, err := privacy.NewHybridGroup(st.sc.Name, registry, owner.SigningKeyPair())
	if err != nil {
		return err
	}
	group.SetWorkers(workers)
	for i := 0; i < st.sc.Readers; i++ {
		u, err := identity.NewUser(fmt.Sprintf("reader-%02d", i))
		if err != nil {
			return err
		}
		if err := registry.Register(u); err != nil {
			return err
		}
		if err := group.Add(u.Name); err != nil {
			return err
		}
		st.byName[u.Name] = u
	}
	st.group = group
	return nil
}

// pickNodes selects the event's deterministic node subset: a seeded shuffle
// of the non-client nodes keyed by (scenario seed, tick, kind) — not by
// event index, so removing other events (minimization) never changes which
// nodes an event touches.
func pickNodes(seed int64, e Event, names []simnet.NodeID) []simnet.NodeID {
	rng := rand.New(rand.NewSource(seed ^ int64(e.Tick+1)*2654435761 ^ int64(foldStr(fnvOffset64, string(e.Kind)))))
	pool := append([]simnet.NodeID(nil), names[1:]...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := int(e.Frac*float64(len(pool)) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(pool) {
		n = len(pool)
	}
	picked := pool[:n]
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return picked
}

// byzModeOf maps the format spelling to the simnet mode.
func byzModeOf(mode string) simnet.ByzMode {
	switch mode {
	case "bit-flip":
		return simnet.ByzBitFlip
	case "truncate":
		return simnet.ByzTruncate
	case "replay":
		return simnet.ByzReplay
	case "equivocate":
		return simnet.ByzEquivocate
	}
	return simnet.ByzNone
}
