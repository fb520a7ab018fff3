package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"godosn/internal/overlay"
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

// This file is the scenario runtime: one tick clock driving the full stack.
// Each tick, in fixed order: windows ending now are reverted, events
// starting now are applied, the capacity/admission/gate clocks advance, an
// optional heal pass runs, OpsPerTick workload actions execute (writes are
// scrub-sealed; reads are verified, latency-tracked, and folded into the
// digest), and the privacy track encrypts one envelope, has a rotating
// member open it, and has every revoked member attempt it.
//
// Every field of Result participates in the determinism contract: two runs
// of the same scenario — at any privacy re-encryption worker count — must
// DeepEqual, including the telemetry snapshot and the per-read latency
// sequence. Reads stay worker-independent because the resilience layer
// fetches replicas serially in health-ranked order and the runtime pins the
// DHT's batch groups serial (FanoutWorkers 1).

// RunConfig parameterizes one execution of a scenario.
type RunConfig struct {
	// Workers is the privacy-group re-encryption worker count (default 1).
	// Scenario results must be identical at any value — that is the
	// "workers 1 vs 8" replay arm.
	Workers int
	// Trace, when set, receives the run's event stream, one traced lookup
	// span per tick, the windowed time-series, and the final registry
	// snapshot. Any telemetry.Sink works: file, socket, OTLP-shaped.
	Trace telemetry.Sink
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

// Result is one run's complete outcome.
type Result struct {
	// Writes/Reads split the workload ops by direction (searches count as
	// reads; write-on-first-read bootstraps count as writes).
	Writes int
	Reads  int
	// OK/NotFound/FalseNotFound/Failed classify reads. NotFound is an
	// honest miss (the key was never successfully written — e.g. a search
	// against an unindexed term) and counts as served: a replica answered
	// correctly. FalseNotFound is a read of a successfully written key that
	// the DHT answered "not found" — data unavailability wearing an honest
	// face (a partition routed the lookup to a reachable non-holder, or
	// every holder crash-lost the value); it counts against the success
	// floor exactly like Failed.
	OK            int
	NotFound      int
	FalseNotFound int
	Failed        int
	// WriteFailures counts stores that failed after retries.
	WriteFailures int
	// ClientSheds mirrors the resilience admission gate (0 unless a future
	// scenario wires client admission).
	ClientSheds int
	// ServerSheds is the total refusals by the per-node DHT gates;
	// ServerShedsByNode breaks it down.
	ServerSheds       int64
	ServerShedsByNode map[string]int64
	// SurfacedCorruption counts reads whose returned bytes failed the
	// scrub check — corruption that got past the verify layer.
	SurfacedCorruption int
	// DetectedCorruption counts replica reads the verify layer rejected
	// (resilience Metrics.CorruptReads).
	DetectedCorruption int
	// MemberOpens / MemberOpenFailures: rotating current-member decrypts.
	MemberOpens        int
	MemberOpenFailures int
	// Revoked / RevokedAttempts / RevokedOpens: the revocation track.
	// RevokedOpens must stay 0 — a revoked member opening a
	// post-revocation envelope is a privacy breach.
	Revoked         int
	RevokedAttempts int
	RevokedOpens    int
	// Digest folds every workload outcome (key, marker, bytes) in issue
	// order — the byte-identity witness compared across runs and pinned by
	// Expect.
	Digest uint64
	// ReadLatencyMS is the simulated latency of every read, issue order.
	ReadLatencyMS []float64
	// HealsRun / HealRepaired account the anti-entropy passes.
	HealsRun     int
	HealRepaired int
	// RotInjected counts stored copies a rot event actually corrupted.
	RotInjected int
	// The sweep track (zero unless the scenario runs the scrub sweeper):
	// SweepTicks counts sweeper ticks, SweepMsgs their total message spend,
	// SweepMaxTickMsgs the worst single tick (the budget-enforcement
	// witness), SweepDivergent the divergent keys sweeps detected,
	// SweepRepaired the copies they repaired, SweepStarved the chunks
	// skipped as unfittable.
	SweepTicks       int
	SweepMsgs        int
	SweepMaxTickMsgs int
	SweepDivergent   int
	SweepRepaired    int
	SweepStarved     int
	// FinalCorruptCopies is the end-of-run audit: stored copies of written
	// keys, on any node, that fail the integrity check after the last tick.
	// Detect-or-repair means injected rot must not outlive the run.
	FinalCorruptCopies int
	// WindowStats is the per-window workload breakdown (RunConfig
	// .WindowTicks wide), each window annotated with the fault events
	// active in it — the data guilty-window localization searches.
	WindowStats []WindowStat
	// Windows is the registry-level time-series: per-window deltas of
	// every counter, gauge, histogram, and event count.
	Windows telemetry.WindowsSnapshot
	// Telemetry is the final registry snapshot.
	Telemetry telemetry.Snapshot
}

// fnv-64a fold for the outcome digest.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

func foldStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
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

// snapBase captures the current counters as the next window's baseline.
func (st *runState) snapBase() {
	r := st.res
	st.winBase = windowBase{
		writes: r.Writes, writeFailures: r.WriteFailures,
		reads: r.Reads, ok: r.OK, notFound: r.NotFound,
		falseNF: r.FalseNotFound, failed: r.Failed,
		surfaced:    r.SurfacedCorruption,
		memberOpens: r.MemberOpens, memberFails: r.MemberOpenFailures,
		revokedAttempts: r.RevokedAttempts, revokedOpens: r.RevokedOpens,
		latLen: len(r.ReadLatencyMS),
		sheds:  st.d.NodeShedTotal(),
	}
}

// closeWindow appends the WindowStat for ticks [winFrom, toTick) by
// diffing the live counters against the window-start baseline, then
// re-baselines for the next window.
func (st *runState) closeWindow(toTick int) {
	r, b := st.res, st.winBase
	w := WindowStat{
		Index:              len(r.WindowStats),
		FromTick:           st.winFrom,
		ToTick:             toTick,
		Writes:             r.Writes - b.writes,
		WriteFailures:      r.WriteFailures - b.writeFailures,
		Reads:              r.Reads - b.reads,
		OK:                 r.OK - b.ok,
		NotFound:           r.NotFound - b.notFound,
		FalseNotFound:      r.FalseNotFound - b.falseNF,
		Failed:             r.Failed - b.failed,
		SurfacedCorruption: r.SurfacedCorruption - b.surfaced,
		MemberOpens:        r.MemberOpens - b.memberOpens,
		MemberOpenFailures: r.MemberOpenFailures - b.memberFails,
		RevokedAttempts:    r.RevokedAttempts - b.revokedAttempts,
		RevokedOpens:       r.RevokedOpens - b.revokedOpens,
		ReadP99MS:          pctl(r.ReadLatencyMS[b.latLen:], 0.99),
		CumServedRate:      r.ServedRate(),
		CumP99MS:           pctl(r.ReadLatencyMS, 0.99),
		ServerShedsDelta:   st.d.NodeShedTotal() - b.sheds,
		Events:             activeIn(st.eventsSorted, st.winFrom, toTick),
	}
	r.WindowStats = append(r.WindowStats, w)
	st.winFrom = toTick
	st.snapBase()
}

// Run executes the scenario once and returns its complete outcome.
func Run(sc *Scenario, rc RunConfig) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	workers := rc.Workers
	if workers < 1 {
		workers = 1
	}

	reg := telemetry.NewRegistry()
	if rc.Trace != nil {
		telemetry.AttachLog(reg.Events(), rc.Trace)
		rc.Trace.Note("scenario.start",
			telemetry.A("name", sc.Name),
			telemetry.A("seed", fmt.Sprintf("%d", sc.Seed)),
			telemetry.A("workers", fmt.Sprintf("%d", workers)))
	}
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
			NodeGate: load.GateConfig{
				PerTick:     sc.GatePerTick,
				QueueDepth:  sc.GateQueue,
				WaitPerSlot: 10 * time.Millisecond,
			},
		},
		Resilience: &kcfg,
		Registry:   reg,
	}
	if sc.SweepChunk > 0 {
		// Continuous scrub: one budgeted sweeper tick per scenario tick over
		// the written keyspace, planned through the DHT's network-free
		// replica view. Scrub workers stay at 1; scrub results are
		// worker-count independent by contract, but the scenario runtime
		// keeps every knob that could matter pinned. Verdicts stay unwired
		// (stack.Spec.Verdicts).
		scfg := scrub.DefaultConfig("")
		spec.Scrub = &scfg
		spec.Sweep = &scrub.SweepConfig{Budget: sc.SweepBudget, ChunkKeys: sc.SweepChunk}
	}
	built, err := stack.Build(spec)
	if err != nil {
		return nil, err
	}
	net, d, kv := built.Net, built.DHT, built.KV

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
		net:      net,
		d:        d,
		kv:       kv,
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
	next := 0
	for t := 0; t < sc.Ticks; t++ {
		st.revertEnded(t)
		for next < len(events) && events[next].Tick == t {
			if err := st.apply(events[next]); err != nil {
				return nil, err
			}
			next++
		}
		net.TickCapacity()
		kv.Tick()
		d.TickGates()
		if sc.HealEvery > 0 && t > 0 && t%sc.HealEvery == 0 {
			rep, err := kv.Heal()
			if err != nil {
				return nil, fmt.Errorf("scenario %s: heal at tick %d: %w", sc.Name, t, err)
			}
			st.res.HealsRun++
			st.res.HealRepaired += rep.Repaired
		}
		if st.sweeper != nil {
			if err := st.sweepTick(t); err != nil {
				return nil, err
			}
		}
		if err := st.workloadTick(t, rc.Trace); err != nil {
			return nil, err
		}
		if st.group != nil {
			if err := st.privacyTick(t); err != nil {
				return nil, err
			}
		}
		// Tick the time-series at the END of the tick body: window k then
		// holds exactly the deltas of ticks [k·W, (k+1)·W). The simnet
		// clock (TickCapacity, above) opens capacity windows at tick
		// start; the telemetry boundary must fall after the tick's
		// workload or each window would miss its final tick.
		st.win.Tick()
		if (t+1)%st.winWidth == 0 {
			st.closeWindow(t + 1)
		}
	}
	st.revertEnded(sc.Ticks + 1) // close any window running to the end
	if st.winFrom < sc.Ticks {
		st.closeWindow(sc.Ticks) // trailing partial window
	}
	st.auditFinal()

	res := st.res
	res.ClientSheds = kv.Metrics().ClientSheds
	res.DetectedCorruption = kv.Metrics().CorruptReads
	res.ServerShedsByNode = d.NodeSheds()
	for _, v := range res.ServerShedsByNode {
		res.ServerSheds += v
	}
	st.win.CloseFinal()
	res.Windows = st.win.Snapshot()
	res.Telemetry = reg.Snapshot()
	if rc.Trace != nil {
		rc.Trace.Windows(res.Windows)
		rc.Trace.Snapshot(res.Telemetry)
		rc.Trace.Note("scenario.end",
			telemetry.A("digest", fmt.Sprintf("%016x", res.Digest)),
			telemetry.A("reads", fmt.Sprintf("%d", res.Reads)),
			telemetry.A("writes", fmt.Sprintf("%d", res.Writes)))
		reg.Events().SetSink(nil)
	}
	return res, nil
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

// apply starts one event.
func (st *runState) apply(e Event) error {
	switch e.Kind {
	case KindChurn:
		nodes := pickNodes(st.sc.Seed, e, st.names)
		for _, id := range nodes {
			if err := st.net.SetOnline(id, false); err != nil {
				return err
			}
		}
		st.windows = append(st.windows, activeWindow{ev: e, nodes: nodes})
	case KindCrash:
		nodes := pickNodes(st.sc.Seed, e, st.names)
		for _, id := range nodes {
			if err := st.net.Crash(id); err != nil {
				return err
			}
		}
		st.windows = append(st.windows, activeWindow{ev: e, nodes: nodes})
	case KindPartition:
		// Client stays in group 0; nodes round-robin across the regions.
		for i, id := range st.names {
			if err := st.net.SetPartition(id, i%e.Groups); err != nil {
				return err
			}
		}
		st.windows = append(st.windows, activeWindow{ev: e})
	case KindOverload:
		nodes := pickNodes(st.sc.Seed, e, st.names)
		for _, id := range nodes {
			if err := st.net.SetCapacity(id, simnet.CapacityConfig{PerTick: e.Capacity, QueueDepth: e.Queue}); err != nil {
				return err
			}
		}
		st.windows = append(st.windows, activeWindow{ev: e, nodes: nodes})
	case KindByzantine:
		nodes := pickNodes(st.sc.Seed, e, st.names)
		for _, id := range nodes {
			cfg := simnet.ByzantineConfig{Mode: byzModeOf(e.Mode), Rate: e.Rate, Seed: st.sc.Seed}
			if err := st.net.SetByzantine(id, cfg); err != nil {
				return err
			}
		}
		st.windows = append(st.windows, activeWindow{ev: e, nodes: nodes})
	case KindLoss:
		st.net.SetLossRate(e.Rate)
		st.windows = append(st.windows, activeWindow{ev: e})
	case KindCelebrity:
		st.celebFrac = e.Frac
		st.windows = append(st.windows, activeWindow{ev: e})
	case KindRevoke:
		return st.revoke(e.Count)
	case KindRot:
		st.rot(e)
	}
	return nil
}

// rot corrupts one stored replica copy for each of Count already-written
// keys — silent at-rest bit rot, the fault the sweeper exists to outrun.
// Key selection is seeded by (scenario seed, tick, kind) exactly like
// pickNodes, so minimizing other events never changes which keys rot. Keys
// written after the event are untouched; with fewer than Count keys
// written, every one rots. The flipped copy is the first placement-order
// replica actually holding the key, so a single flip per key is what the
// detect-or-repair invariant must account for.
func (st *runState) rot(e Event) {
	rng := rand.New(rand.NewSource(st.sc.Seed ^ int64(e.Tick+1)*2654435761 ^ int64(foldStr(fnvOffset64, string(e.Kind)))))
	pool := append([]string(nil), st.writtenOrder...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := e.Count
	if n > len(pool) {
		n = len(pool)
	}
	for _, key := range pool[:n] {
		for _, name := range st.d.PlanReplicas(key) {
			if st.d.CorruptStored(name, key, func(b []byte) []byte {
				b[len(b)/2] ^= 0x20
				return b
			}) {
				st.res.RotInjected++
				break
			}
		}
	}
}

// sweepTick registers newly written keys with the sweeper, runs one
// budgeted sweep tick, and folds the report into the Result.
func (st *runState) sweepTick(tick int) error {
	if st.sweepAdded < len(st.writtenOrder) {
		st.sweeper.AddKeys(st.writtenOrder[st.sweepAdded:]...)
		st.sweepAdded = len(st.writtenOrder)
	}
	rep, err := st.sweeper.Tick()
	if err != nil {
		return fmt.Errorf("scenario %s: sweep at tick %d: %w", st.sc.Name, tick, err)
	}
	r := st.res
	r.SweepTicks++
	r.SweepMsgs += rep.Msgs
	if rep.Msgs > r.SweepMaxTickMsgs {
		r.SweepMaxTickMsgs = rep.Msgs
	}
	r.SweepDivergent += rep.Divergent
	r.SweepRepaired += rep.Repaired
	r.SweepStarved += rep.Starved
	return nil
}

// auditFinal counts stored copies of written keys that fail the integrity
// check after the last tick — the detect-or-repair witness. Network-free:
// it inspects node-local state directly.
func (st *runState) auditFinal() {
	for _, key := range st.writtenOrder {
		for _, id := range st.names {
			if v, ok := st.d.StoredCopy(string(id), key); ok && scrub.Check(key, v) != nil {
				st.res.FinalCorruptCopies++
			}
		}
	}
}

// revertEnded undoes every window whose end has arrived, in schedule order.
func (st *runState) revertEnded(tick int) {
	kept := st.windows[:0]
	for _, w := range st.windows {
		if w.ev.End() > tick {
			kept = append(kept, w)
			continue
		}
		switch w.ev.Kind {
		case KindChurn, KindCrash:
			for _, id := range w.nodes {
				_ = st.net.SetOnline(id, true)
			}
		case KindPartition:
			for _, id := range st.names {
				_ = st.net.SetPartition(id, 0)
			}
		case KindOverload:
			for _, id := range w.nodes {
				_ = st.net.SetCapacity(id, simnet.CapacityConfig{})
			}
		case KindByzantine:
			for _, id := range w.nodes {
				_ = st.net.SetByzantine(id, simnet.ByzantineConfig{})
			}
		case KindLoss:
			st.net.SetLossRate(0)
		case KindCelebrity:
			st.celebFrac = 0
		}
	}
	st.windows = kept
}

// workloadTick issues OpsPerTick actions. The first read of a tick is
// traced into the sink when one is attached (span trees never perturb
// outcomes — they are nil-safe annotations on the same code path).
func (st *runState) workloadTick(tick int, sink telemetry.Sink) error {
	res := st.res
	tracedRead := false
	for i := 0; i < st.sc.OpsPerTick; i++ {
		act, ok := st.stream.Next()
		if !ok {
			return fmt.Errorf("scenario %s: workload exhausted at tick %d", st.sc.Name, tick)
		}
		if act.Value != nil { // write (post, comment, or bootstrap)
			res.Writes++
			sealed := scrub.Seal(act.Key, act.Value)
			_, err := st.kv.Store(st.client, act.Key, sealed)
			if err != nil {
				res.WriteFailures++
				res.Digest = foldStr(res.Digest, act.Key)
				res.Digest = foldStr(res.Digest, "|W")
				continue
			}
			if st.firstKey == "" {
				st.firstKey = act.Key
			}
			if !st.written[act.Key] {
				st.written[act.Key] = true
				st.writtenOrder = append(st.writtenOrder, act.Key)
			}
			res.Digest = foldStr(res.Digest, act.Key)
			res.Digest = foldStr(res.Digest, "|w")
			continue
		}
		// Read (feed read or search). A celebrity window redirects a
		// seeded fraction of feed reads to the hot profile's first post.
		key := act.Key
		if st.celebFrac > 0 && act.Kind == workload.ActionReadFeed && st.firstKey != "" {
			if st.celebRng.Float64() < st.celebFrac {
				key = st.firstKey
			}
		}
		res.Reads++
		var sp *telemetry.Span
		if sink != nil && !tracedRead {
			// LookupSpan tags the key itself; the wrapper adds the tick.
			sp = telemetry.NewSpan("scenario.read")
			sp.Tag("tick", fmt.Sprintf("%d", tick))
			tracedRead = true
		}
		value, stats, err := st.kv.LookupSpan(sp, st.client, key)
		res.ReadLatencyMS = append(res.ReadLatencyMS, float64(stats.Latency)/float64(time.Millisecond))
		switch {
		case err == nil:
			payload, oerr := scrub.Open(key, value)
			if oerr != nil {
				// The verify layer should have rejected this replica.
				res.SurfacedCorruption++
				res.Digest = foldStr(res.Digest, key)
				res.Digest = foldStr(res.Digest, "|c")
				sp.End("corrupt")
			} else {
				res.OK++
				res.Digest = foldStr(res.Digest, key)
				res.Digest = foldStr(res.Digest, "|r")
				res.Digest = fold(res.Digest, payload)
				sp.End("ok")
			}
		case errors.Is(err, overlay.ErrNotFound):
			if st.written[key] {
				// The key exists; "not found" means the DHT lost or could
				// not reach every holder — an availability failure.
				res.FalseNotFound++
				res.Digest = foldStr(res.Digest, key)
				res.Digest = foldStr(res.Digest, "|M")
				sp.End("false-miss")
			} else {
				res.NotFound++
				res.Digest = foldStr(res.Digest, key)
				res.Digest = foldStr(res.Digest, "|m")
				sp.End("miss")
			}
		default:
			res.Failed++
			res.Digest = foldStr(res.Digest, key)
			res.Digest = foldStr(res.Digest, "|f")
			sp.End("failed")
		}
		if sp != nil {
			sink.Span(sp)
		}
	}
	return nil
}

// privacyTick encrypts one envelope, has the rotating current member open
// it, and has every revoked member attempt it (expected: denied).
func (st *runState) privacyTick(tick int) error {
	env, err := st.group.Encrypt([]byte(fmt.Sprintf("tick-%04d confidential update", tick)))
	if err != nil {
		return fmt.Errorf("scenario %s: encrypt at tick %d: %w", st.sc.Name, tick, err)
	}
	members := st.group.Members()
	if len(members) > 0 {
		reader := st.byName[members[tick%len(members)]]
		if _, err := st.group.Decrypt(reader, env); err != nil {
			st.res.MemberOpenFailures++
		} else {
			st.res.MemberOpens++
		}
	}
	for _, u := range st.revoked {
		st.res.RevokedAttempts++
		if _, err := st.group.Decrypt(u, env); err == nil {
			st.res.RevokedOpens++
		}
	}
	return nil
}

// revoke removes count members (last in sorted order first): rekey plus
// archive re-encryption, parallelized by RunConfig.Workers.
func (st *runState) revoke(count int) error {
	for i := 0; i < count; i++ {
		members := st.group.Members()
		if len(members) <= 1 {
			break
		}
		victim := members[len(members)-1]
		if _, err := st.group.Remove(victim); err != nil {
			return fmt.Errorf("scenario %s: revoke %s: %w", st.sc.Name, victim, err)
		}
		st.res.Revoked++
		st.revoked = append(st.revoked, st.byName[victim])
	}
	return nil
}

// Violation is one failed replay check.
type Violation struct {
	// Kind is the invariant kind, or "expect" / "determinism" for the
	// other check families.
	Kind string
	// Detail states measured-vs-required.
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Kind, v.Detail) }

// pctl is the q-quantile (nearest-rank) of values.
func pctl(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// ServedRate is (OK + honest not-found) / reads — the availability measure
// the success-floor invariant checks. A miss answered by a live replica is
// served; only availability failures count against the floor.
func (r *Result) ServedRate() float64 {
	if r.Reads == 0 {
		return 1
	}
	return float64(r.OK+r.NotFound) / float64(r.Reads)
}

// P99MS is the 99th-percentile simulated read latency in milliseconds.
func (r *Result) P99MS() float64 { return pctl(r.ReadLatencyMS, 0.99) }

// Evaluate checks the scenario's invariants against a run result.
func Evaluate(sc *Scenario, res *Result) []Violation {
	var out []Violation
	add := func(kind InvariantKind, format string, args ...any) {
		out = append(out, Violation{Kind: string(kind), Detail: fmt.Sprintf(format, args...)})
	}
	for _, inv := range sc.Invariants {
		switch inv.Kind {
		case InvLookupSuccessMin:
			if rate := res.ServedRate(); rate < inv.Value {
				add(inv.Kind, "served %.4f < floor %g (%d ok + %d miss of %d reads; %d false not-found, %d failed)",
					rate, inv.Value, res.OK, res.NotFound, res.Reads, res.FalseNotFound, res.Failed)
			}
		case InvP99MaxMS:
			if p99 := res.P99MS(); p99 > inv.Value {
				add(inv.Kind, "p99 %.1fms > ceiling %gms", p99, inv.Value)
			}
		case InvMaxSurfacedCorruption:
			if res.SurfacedCorruption > int(inv.Value) {
				add(inv.Kind, "surfaced %d corrupt reads > cap %d", res.SurfacedCorruption, int(inv.Value))
			}
		case InvServerShedsMin:
			if res.ServerSheds < int64(inv.Value) {
				add(inv.Kind, "server sheds %d < floor %d", res.ServerSheds, int64(inv.Value))
			}
		case InvNoRevokedOpens:
			if res.RevokedOpens > 0 {
				add(inv.Kind, "%d post-revocation opens by revoked members", res.RevokedOpens)
			}
		case InvNoMemberOpenFailures:
			if res.MemberOpenFailures > 0 {
				add(inv.Kind, "%d current-member decrypt failures", res.MemberOpenFailures)
			}
		case InvScrubRepairedMin:
			if res.SweepRepaired < int(inv.Value) {
				add(inv.Kind, "sweep repaired %d copies < floor %d (%d divergent detected)",
					res.SweepRepaired, int(inv.Value), res.SweepDivergent)
			}
		case InvFinalCorruptMax:
			if res.FinalCorruptCopies > int(inv.Value) {
				add(inv.Kind, "final audit found %d corrupt stored copies > cap %d (%d rot injected)",
					res.FinalCorruptCopies, int(inv.Value), res.RotInjected)
			}
		case InvSweepBudgetMsgsMax:
			if res.SweepMaxTickMsgs > int(inv.Value) {
				add(inv.Kind, "worst sweep tick spent %d msgs > budget %d",
					res.SweepMaxTickMsgs, int(inv.Value))
			}
		}
	}
	return out
}

// CheckExpect compares a run against the pinned capture counters.
func (s *Scenario) CheckExpect(res *Result) []Violation {
	if s.Expect == nil {
		return nil
	}
	e := s.Expect
	var out []Violation
	mismatch := func(format string, args ...any) {
		out = append(out, Violation{Kind: "expect", Detail: fmt.Sprintf(format, args...)})
	}
	if res.Digest != e.Digest {
		mismatch("digest %016x != recorded %016x", res.Digest, e.Digest)
	}
	if res.Writes != e.Writes {
		mismatch("writes %d != recorded %d", res.Writes, e.Writes)
	}
	if res.Reads != e.Reads {
		mismatch("reads %d != recorded %d", res.Reads, e.Reads)
	}
	if res.NotFound != e.NotFound {
		mismatch("not-found %d != recorded %d", res.NotFound, e.NotFound)
	}
	if res.Failed != e.Failed {
		mismatch("failed %d != recorded %d", res.Failed, e.Failed)
	}
	return out
}

// ReplayReport is the outcome of a full three-arm replay.
type ReplayReport struct {
	// Result is the workers=1 run.
	Result *Result
	// Violations are failed invariant and expect checks (empty = pass).
	Violations []Violation
	// Guilty localizes each violated invariant to the first window whose
	// backing metric crossed the threshold, with the injected events
	// overlapping it. Computed from Result's window breakdown — zero
	// additional runs. Empty when nothing violated.
	Guilty []GuiltyWindow
}

// Failed reports whether any check tripped.
func (r *ReplayReport) Failed() bool { return len(r.Violations) > 0 }

// Replay executes the scenario's full replay protocol: run twice at
// workers=1 (must DeepEqual — byte-identical re-execution), once at
// workers=8 (must DeepEqual the workers=1 result — re-encryption
// parallelism is invisible), then evaluates invariants and the pinned
// Expect counters. A determinism divergence is returned as an error — it
// means the engine itself broke, not the scenario.
func Replay(sc *Scenario) (*ReplayReport, error) {
	r1, err := Run(sc, RunConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	r2, err := Run(sc, RunConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(r1, r2) {
		return nil, fmt.Errorf("scenario %s: run-twice divergence (determinism regression)", sc.Name)
	}
	r8, err := Run(sc, RunConfig{Workers: 8})
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(r1, r8) {
		return nil, fmt.Errorf("scenario %s: workers 1 vs 8 divergence (determinism regression)", sc.Name)
	}
	report := &ReplayReport{Result: r1}
	report.Violations = append(report.Violations, Evaluate(sc, r1)...)
	report.Violations = append(report.Violations, sc.CheckExpect(r1)...)
	report.Guilty = Localize(sc, r1, report.Violations)
	return report, nil
}
