package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
	"godosn/internal/workload"
)

// This file is the scenario runtime: one tick clock driving the full stack.
// Each tick, in fixed order: windows ending now are reverted, events
// starting now are applied, the capacity/health/gate clocks advance, an
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
	// FinalUnderReplicated is the end-of-run replication audit: written
	// keys that some holder of their replica plan (dht PlanReplicas) does
	// not hold after the last tick.
	FinalUnderReplicated int
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
	st, err := newRunState(sc, rc, reg, workers)
	if err != nil {
		return nil, err
	}
	net, d, kv, events := st.net, st.d, st.kv, st.eventsSorted
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
		d.Tick()
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
	return st.finish(rc, reg), nil
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
func (st *runState) workloadTick(tick int, sink *telemetry.Sink) error {
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
