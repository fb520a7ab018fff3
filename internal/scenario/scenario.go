// Package scenario is the deterministic chaos-scenario engine: a typed,
// file-backed format for fault schedules (churn bursts, region partitions,
// overload waves, Byzantine corruption windows, mass-revocation storms,
// celebrity fan-out, correlated node loss) plus a runtime that replays a
// schedule byte-identically over the existing stack — simnet fault
// injectors, the Chord DHT with server-side admission gates, the resilience
// decorator, the streaming social workload, and a hybrid privacy group —
// all on a single tick clock.
//
// The paper's security analysis (Table I) enumerates adversarial
// conditions; experiments E17–E23 each hand-code one. A Scenario makes the
// condition itself a first-class, committed artifact: `dosnbench -scenario`
// replays every file under scenarios/ and enforces its invariants, a
// recorder (record.go) captures an ad-hoc run into a new file, and a
// delta-debugging minimizer (minimize.go) shrinks a failing schedule to a
// minimal reproduction.
//
// Determinism contract: a scenario run draws every decision from the
// scenario seed — no wall clock, no crypto/rand in any counted result.
// Run-twice must DeepEqual, and the privacy re-encryption worker count
// (RunConfig.Workers) must not change a single result field. The runtime
// pins the DHT's batch groups serial: concurrent groups on a lossy network
// make the assignment of seeded drops scheduling-dependent (see
// dht.Config.FanoutWorkers), which would break replay.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// ErrScenario tags every validation and format error in this package, so
// callers (dosnbench exits 2 on it) can distinguish a malformed scenario
// from a failed one.
var ErrScenario = errors.New("scenario: invalid")

// EventKind names one fault/workload event type.
type EventKind string

// Event kinds.
const (
	// KindChurn takes a seeded fraction of non-client nodes offline for
	// the window, then brings them back with their state intact.
	KindChurn EventKind = "churn"
	// KindCrash is correlated node loss: like churn, but the nodes crash
	// (local state wiped via the simnet crash hook) before restarting.
	KindCrash EventKind = "crash"
	// KindPartition splits the network into region groups for the window;
	// the client stays in group 0 with every (1 mod groups)-indexed node.
	KindPartition EventKind = "partition"
	// KindOverload caps a seeded fraction of nodes at a per-tick service
	// capacity with a bounded queue for the window.
	KindOverload EventKind = "overload"
	// KindByzantine makes a seeded fraction of nodes corrupt replies
	// (mode: bit-flip/truncate/replay/equivocate) at a rate for the window.
	KindByzantine EventKind = "byzantine"
	// KindLoss sets a network-wide message loss rate for the window.
	KindLoss EventKind = "loss"
	// KindRevoke instantly revokes count members from the privacy group
	// (rekey + archive re-encryption) — a mass-revocation storm when count
	// is large.
	KindRevoke EventKind = "revoke"
	// KindCelebrity redirects a fraction of feed reads to one hot key for
	// the window — a flash crowd on a celebrity profile.
	KindCelebrity EventKind = "celebrity"
	// KindRot instantly bit-flips the stored bytes of one replica copy for
	// count seeded already-written keys — silent at-rest corruption the
	// verify layer must mask and the scrub sweeper must find and repair.
	KindRot EventKind = "rot"
)

// Event is one scheduled happening. Which fields are meaningful depends on
// Kind (see the shape table in shapes); unused fields must be zero — the
// strict format enforces it so every committed file has exactly one spelling.
type Event struct {
	// Tick is when the event starts, in [0, Ticks).
	Tick int
	// Kind selects the fault family.
	Kind EventKind
	// Dur is the window length in ticks for windowed kinds (the effect is
	// reverted at tick Tick+Dur); 0 for instant kinds (revoke).
	Dur int
	// Frac is the affected fraction of non-client nodes (churn, crash,
	// overload, byzantine) or of feed reads (celebrity), in (0, 1].
	Frac float64
	// Groups is the region count for partition, in [2, 8].
	Groups int
	// Capacity is the per-tick full-speed service cap for overload (>= 1).
	Capacity int
	// Queue is the overload queue depth (>= 0).
	Queue int
	// Mode is the byzantine corruption mode: bit-flip, truncate, replay,
	// or equivocate.
	Mode string
	// Rate is the loss probability (loss, in (0, 0.9]) or per-reply
	// corruption probability (byzantine, in (0, 1]).
	Rate float64
	// Count is how many members a revoke event removes, or how many written
	// keys a rot event corrupts one copy of (>= 1).
	Count int
}

// End returns the first tick after the event's effect (Tick for instant
// events).
func (e Event) End() int { return e.Tick + e.Dur }

// InvariantKind names one replay check.
type InvariantKind string

// Invariant kinds.
const (
	// InvLookupSuccessMin requires (OK + honest not-found) / reads >= value.
	InvLookupSuccessMin InvariantKind = "lookup-success-min"
	// InvP99MaxMS caps the p99 simulated read latency in milliseconds.
	InvP99MaxMS InvariantKind = "p99-max-ms"
	// InvMaxSurfacedCorruption caps reads whose bytes reached the caller
	// corrupted (the verify layer should hold this at 0).
	InvMaxSurfacedCorruption InvariantKind = "max-surfaced-corruption"
	// InvServerShedsMin requires the DHT node gates to have shed at least
	// value requests — evidence server-side backpressure engaged.
	InvServerShedsMin InvariantKind = "server-sheds-min"
	// InvNoRevokedOpens forbids any revoked member decrypting any
	// post-revocation envelope.
	InvNoRevokedOpens InvariantKind = "no-revoked-opens"
	// InvNoMemberOpenFailures forbids any current member failing to
	// decrypt a fresh envelope.
	InvNoMemberOpenFailures InvariantKind = "no-member-open-failures"
	// InvScrubRepairedMin requires the sweep to have repaired at least
	// value copies — evidence continuous scrubbing engaged and healed the
	// injected rot.
	InvScrubRepairedMin InvariantKind = "scrub-repaired-min"
	// InvFinalCorruptMax caps the copies still failing the integrity check
	// at run end (detect-or-repair: injected rot must not outlive the run).
	InvFinalCorruptMax InvariantKind = "final-corrupt-copies-max"
	// InvSweepBudgetMsgsMax caps the messages any single sweep tick spent —
	// the budget-enforcement witness (normally set to the sweep budget).
	InvSweepBudgetMsgsMax InvariantKind = "sweep-budget-msgs-max"
	// InvFinalUnderReplicatedMax caps the written keys that some holder of
	// their replica plan still misses at run end (an acked write must end
	// up on its whole replica set).
	InvFinalUnderReplicatedMax InvariantKind = "final-under-replicated-max"
)

// Invariant is one replay check; Value is meaningful only for the valued
// kinds (success floor, p99 ceiling, corruption cap, sheds floor).
type Invariant struct {
	Kind  InvariantKind
	Value float64
}

// valuedInvariant reports whether the kind carries a threshold value.
func valuedInvariant(k InvariantKind) bool {
	switch k {
	case InvLookupSuccessMin, InvP99MaxMS, InvMaxSurfacedCorruption, InvServerShedsMin,
		InvScrubRepairedMin, InvFinalCorruptMax, InvSweepBudgetMsgsMax, InvFinalUnderReplicatedMax:
		return true
	}
	return false
}

// knownInvariant reports whether the kind exists.
func knownInvariant(k InvariantKind) bool {
	switch k {
	case InvLookupSuccessMin, InvP99MaxMS, InvMaxSurfacedCorruption,
		InvServerShedsMin, InvNoRevokedOpens, InvNoMemberOpenFailures,
		InvScrubRepairedMin, InvFinalCorruptMax, InvSweepBudgetMsgsMax, InvFinalUnderReplicatedMax:
		return true
	}
	return false
}

// Expect pins the exact counters a replay must reproduce — recorded by
// Record from the capture run, checked on every replay. A drift is a
// determinism regression somewhere in the stack.
type Expect struct {
	// Digest is the fnv-64a fold over every read outcome (key, marker,
	// bytes) in issue order.
	Digest uint64
	// Writes, Reads, NotFound, Failed are the workload op counters.
	Writes   int
	Reads    int
	NotFound int
	Failed   int
	// Detected is the corrupt replica reads the verify layer rejected
	// (Result.DetectedCorruption); Repaired is the copies heal and sweep
	// pushes repaired (Result.HealRepaired + SweepRepaired). A run can
	// serve the same bytes while reading liars or repairing rot more or
	// less often; these two pin that.
	Detected int
	Repaired int
}

// Scenario is one complete, self-contained chaos schedule.
type Scenario struct {
	// Name identifies the scenario ([a-z0-9-]+).
	Name string
	// Seed drives every random decision of the run.
	Seed int64
	// Ticks is the schedule length.
	Ticks int
	// Nodes is the DHT population; node 0 is the client origin and is
	// never faulted.
	Nodes int
	// Replication is the DHT replication factor.
	Replication int
	// Users is the workload population.
	Users int
	// OpsPerTick is how many workload actions each tick issues.
	OpsPerTick int
	// Readers is the privacy-group member count (0 disables the privacy
	// track; required > revoke count so the group never empties).
	Readers int
	// HealEvery runs one anti-entropy heal pass every HealEvery ticks
	// (0 disables healing).
	HealEvery int
	// GatePerTick/GateQueue configure the per-node server-side admission
	// gate on every DHT node (0 disables; see dht.Config.NodeGate).
	GatePerTick int
	GateQueue   int
	// GraphWeighted samples workload actors by BA follower degree instead
	// of Zipf rank order (workload.WeightGraph).
	GraphWeighted bool
	// SweepBudget/SweepChunk activate the continuous scrub sweeper
	// (scrub.Sweeper over the written keyspace, one tick per scenario
	// tick): SweepBudget is the per-tick message budget, SweepChunk the
	// keys per sweep chunk. Both must be set together (0/0 disables).
	SweepBudget int
	SweepChunk  int
	// Events is the schedule, canonically sorted by (tick, kind).
	Events []Event
	// Invariants are the replay checks.
	Invariants []Invariant
	// Expect, when set, pins the capture run's exact counters.
	Expect *Expect
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// shape describes which Event fields one kind uses.
type shape struct {
	dur, frac, groups, capacity, queue, mode, rate, count bool
}

// shapes is the per-kind field table; Validate rejects any non-zero field
// outside its kind's shape, and the format writes exactly these fields.
var shapes = map[EventKind]shape{
	KindChurn:     {dur: true, frac: true},
	KindCrash:     {dur: true, frac: true},
	KindPartition: {dur: true, groups: true},
	KindOverload:  {dur: true, frac: true, capacity: true, queue: true},
	KindByzantine: {dur: true, frac: true, mode: true, rate: true},
	KindLoss:      {dur: true, rate: true},
	KindRevoke:    {count: true},
	KindCelebrity: {dur: true, frac: true},
	KindRot:       {count: true},
}

// byzModes are the accepted byzantine mode spellings (simnet's ByzMode
// String values).
var byzModes = map[string]bool{"bit-flip": true, "truncate": true, "replay": true, "equivocate": true}

// family groups kinds whose windows must not overlap because they drive
// the same injector state: churn and crash both toggle node liveness.
func family(k EventKind) string {
	if k == KindChurn || k == KindCrash {
		return "offline"
	}
	return string(k)
}

// fail builds a tagged validation error.
func fail(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrScenario, fmt.Sprintf(format, args...))
}

// Validate checks the scenario against every structural rule. A valid
// scenario is replayable: every event references reachable state and no
// two windows contend for the same injector.
func (s *Scenario) Validate() error {
	if !nameRe.MatchString(s.Name) {
		return fail("name %q must match %s", s.Name, nameRe)
	}
	if s.Ticks < 1 || s.Ticks > 100000 {
		return fail("ticks %d out of [1, 100000]", s.Ticks)
	}
	if s.Nodes < 2 || s.Nodes > 1024 {
		return fail("nodes %d out of [2, 1024]", s.Nodes)
	}
	if s.Replication < 1 || s.Replication > s.Nodes {
		return fail("replication %d out of [1, nodes=%d]", s.Replication, s.Nodes)
	}
	if s.Users < 1 {
		return fail("users %d must be >= 1", s.Users)
	}
	if s.OpsPerTick < 1 {
		return fail("ops-per-tick %d must be >= 1", s.OpsPerTick)
	}
	if s.Readers < 0 || s.Readers > 64 {
		return fail("readers %d out of [0, 64]", s.Readers)
	}
	if s.HealEvery < 0 {
		return fail("heal-every %d must be >= 0", s.HealEvery)
	}
	if s.GatePerTick < 0 || s.GateQueue < 0 {
		return fail("node-gate %d %d must be >= 0", s.GatePerTick, s.GateQueue)
	}
	if s.GatePerTick == 0 && s.GateQueue > 0 {
		return fail("node-gate queue %d requires a per-tick budget", s.GateQueue)
	}
	if s.SweepBudget < 0 || s.SweepChunk < 0 {
		return fail("sweep %d %d must be >= 0", s.SweepBudget, s.SweepChunk)
	}
	if (s.SweepBudget > 0) != (s.SweepChunk > 0) {
		return fail("sweep budget %d and chunk %d must be set together", s.SweepBudget, s.SweepChunk)
	}

	seen := make(map[[2]any]bool) // (tick, kind) uniqueness
	type window struct {
		fam        string
		start, end int
		tick       int
	}
	var windows []window
	revokeTotal := 0
	for i, e := range s.Events {
		if err := s.validateEvent(e); err != nil {
			return fmt.Errorf("%w (event %d)", err, i)
		}
		key := [2]any{e.Tick, e.Kind}
		if seen[key] {
			return fail("duplicate event (tick %d, kind %s)", e.Tick, e.Kind)
		}
		seen[key] = true
		if e.Kind == KindRevoke {
			// Compared with what is left, so a huge count cannot wrap the total.
			if e.Count >= s.Readers-revokeTotal {
				return fail("revoke total %d + %d must leave at least one of %d readers", revokeTotal, e.Count, s.Readers)
			}
			revokeTotal += e.Count
			continue
		}
		if e.Kind == KindRot {
			continue // instant: no window to contend for
		}
		windows = append(windows, window{family(e.Kind), e.Tick, e.End(), e.Tick})
	}
	sort.Slice(windows, func(i, j int) bool {
		if windows[i].fam != windows[j].fam {
			return windows[i].fam < windows[j].fam
		}
		return windows[i].start < windows[j].start
	})
	for i := 1; i < len(windows); i++ {
		a, b := windows[i-1], windows[i]
		if a.fam == b.fam && b.start < a.end {
			return fail("overlapping %s windows at ticks %d and %d", a.fam, a.tick, b.tick)
		}
	}

	invSeen := make(map[InvariantKind]bool)
	for _, inv := range s.Invariants {
		if !knownInvariant(inv.Kind) {
			return fail("unknown invariant %q", inv.Kind)
		}
		if invSeen[inv.Kind] {
			return fail("duplicate invariant %s", inv.Kind)
		}
		invSeen[inv.Kind] = true
		if !finite(inv.Value) {
			return fail("%s value %g is not a finite number", inv.Kind, inv.Value)
		}
		switch inv.Kind {
		case InvLookupSuccessMin:
			if inv.Value <= 0 || inv.Value > 1 {
				return fail("%s value %g out of (0, 1]", inv.Kind, inv.Value)
			}
		case InvP99MaxMS:
			if inv.Value <= 0 {
				return fail("%s value %g must be > 0", inv.Kind, inv.Value)
			}
		case InvMaxSurfacedCorruption:
			if inv.Value < 0 || inv.Value != float64(int(inv.Value)) {
				return fail("%s value %g must be a non-negative integer", inv.Kind, inv.Value)
			}
		case InvServerShedsMin:
			if inv.Value < 1 || inv.Value != float64(int(inv.Value)) {
				return fail("%s value %g must be a positive integer", inv.Kind, inv.Value)
			}
			if s.GatePerTick == 0 {
				return fail("%s requires node-gate", inv.Kind)
			}
		case InvScrubRepairedMin:
			if inv.Value < 1 || inv.Value != float64(int(inv.Value)) {
				return fail("%s value %g must be a positive integer", inv.Kind, inv.Value)
			}
			if s.SweepChunk == 0 {
				return fail("%s requires sweep", inv.Kind)
			}
		case InvFinalCorruptMax, InvFinalUnderReplicatedMax:
			if inv.Value < 0 || inv.Value != float64(int(inv.Value)) {
				return fail("%s value %g must be a non-negative integer", inv.Kind, inv.Value)
			}
		case InvSweepBudgetMsgsMax:
			if inv.Value < 1 || inv.Value != float64(int(inv.Value)) {
				return fail("%s value %g must be a positive integer", inv.Kind, inv.Value)
			}
			if s.SweepChunk == 0 {
				return fail("%s requires sweep", inv.Kind)
			}
		default:
			if inv.Value != 0 {
				return fail("%s carries no value", inv.Kind)
			}
		}
	}
	if s.Expect != nil {
		e := s.Expect
		if e.Writes < 0 || e.Reads < 0 || e.NotFound < 0 || e.Failed < 0 || e.Detected < 0 || e.Repaired < 0 {
			return fail("expect counters must be >= 0")
		}
	}
	return nil
}

// validateEvent checks one event's shape and parameter ranges.
func (s *Scenario) validateEvent(e Event) error {
	sh, ok := shapes[e.Kind]
	if !ok {
		return fail("unknown event kind %q", e.Kind)
	}
	if e.Tick < 0 || e.Tick >= s.Ticks {
		return fail("%s tick %d out of [0, %d)", e.Kind, e.Tick, s.Ticks)
	}
	if !finite(e.Frac) || !finite(e.Rate) {
		return fail("%s event carries a non-finite number", e.Kind)
	}
	// Shape: unused fields must be zero.
	if !sh.dur && e.Dur != 0 ||
		!sh.frac && e.Frac != 0 ||
		!sh.groups && e.Groups != 0 ||
		!sh.capacity && e.Capacity != 0 ||
		!sh.queue && e.Queue != 0 ||
		!sh.mode && e.Mode != "" ||
		!sh.rate && e.Rate != 0 ||
		!sh.count && e.Count != 0 {
		return fail("%s event carries fields outside its shape", e.Kind)
	}
	if sh.dur {
		if e.Dur < 1 {
			return fail("%s dur %d must be >= 1", e.Kind, e.Dur)
		}
		// Compared as a length, so a huge dur cannot wrap Tick+Dur.
		if e.Dur > s.Ticks-e.Tick {
			return fail("%s window of %d ticks from tick %d exceeds ticks %d", e.Kind, e.Dur, e.Tick, s.Ticks)
		}
	}
	if sh.frac && (e.Frac <= 0 || e.Frac > 1) {
		return fail("%s frac %g out of (0, 1]", e.Kind, e.Frac)
	}
	switch e.Kind {
	case KindPartition:
		if e.Groups < 2 || e.Groups > 8 {
			return fail("partition groups %d out of [2, 8]", e.Groups)
		}
		if e.Groups > s.Nodes {
			return fail("partition groups %d exceeds nodes %d", e.Groups, s.Nodes)
		}
	case KindOverload:
		if e.Capacity < 1 {
			return fail("overload capacity %d must be >= 1", e.Capacity)
		}
		if e.Queue < 0 {
			return fail("overload queue %d must be >= 0", e.Queue)
		}
	case KindByzantine:
		if !byzModes[e.Mode] {
			return fail("byzantine mode %q not in {bit-flip, truncate, replay, equivocate}", e.Mode)
		}
		if e.Rate <= 0 || e.Rate > 1 {
			return fail("byzantine rate %g out of (0, 1]", e.Rate)
		}
	case KindLoss:
		if e.Rate <= 0 || e.Rate > 0.9 {
			return fail("loss rate %g out of (0, 0.9]", e.Rate)
		}
	case KindRevoke:
		if e.Count < 1 {
			return fail("revoke count %d must be >= 1", e.Count)
		}
		if s.Readers == 0 {
			return fail("revoke requires readers > 0")
		}
	case KindRot:
		if e.Count < 1 {
			return fail("rot count %d must be >= 1", e.Count)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite. A NaN fails every
// comparison, so it slips past range checks and, as a threshold, never fails.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// sortEvents orders the schedule canonically: by tick, then kind. Validate
// forbids duplicate (tick, kind) pairs, so the order is total.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].Tick != events[j].Tick {
			return events[i].Tick < events[j].Tick
		}
		return events[i].Kind < events[j].Kind
	})
}

// sortInvariants orders checks canonically by kind.
func sortInvariants(invs []Invariant) {
	sort.Slice(invs, func(i, j int) bool { return invs[i].Kind < invs[j].Kind })
}

// Normalize sorts events and invariants into canonical order in place.
func (s *Scenario) Normalize() {
	sortEvents(s.Events)
	sortInvariants(s.Invariants)
}

// Clone deep-copies the scenario (the minimizer mutates candidates freely).
func (s *Scenario) Clone() *Scenario {
	c := *s
	c.Events = append([]Event(nil), s.Events...)
	c.Invariants = append([]Invariant(nil), s.Invariants...)
	if s.Expect != nil {
		e := *s.Expect
		c.Expect = &e
	}
	return &c
}
