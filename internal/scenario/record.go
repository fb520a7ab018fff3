package scenario

import (
	"fmt"
	"math"
	"math/rand"
)

// This file is the recorder: it captures an ad-hoc run into a committed
// .scenario file. Record samples a fault schedule from a profile (which
// event kinds to exercise) with a seeded RNG, runs it once to measure what
// the stack actually delivers, derives calibrated invariants from that
// capture (a success floor and p99 ceiling with head-room, plus the
// absolute guarantees: zero surfaced corruption, zero post-revocation
// opens), pins the exact counters in an expect line, and then replays the
// result through the full three-arm protocol to prove the file it returns
// will pass in CI byte-identically.

// RecordConfig parameterizes a capture.
type RecordConfig struct {
	// Name names the scenario (and its file).
	Name string
	// Seed drives the run and the schedule sampling.
	Seed int64
	// Ticks/Nodes/Replication/Users/OpsPerTick/Readers/HealEvery and the
	// gate knobs mirror the Scenario header fields.
	Ticks         int
	Nodes         int
	Replication   int
	Users         int
	OpsPerTick    int
	Readers       int
	HealEvery     int
	GatePerTick   int
	GateQueue     int
	GraphWeighted bool
	// SweepBudget/SweepChunk mirror the Scenario sweep header: when
	// SweepChunk > 0 the capture runs the continuous scrub sweeper and the
	// calibration pins its budget and repair behaviour as invariants.
	SweepBudget int
	SweepChunk  int
	// Profile lists the event kinds to sample, one window each (revoke:
	// one instant storm; rot: one instant corruption burst). Order is
	// cosmetic; the schedule is canonical.
	Profile []EventKind
	// Intensity scales fault magnitude (fractions, rates); 0 means 1.
	Intensity float64
	// Calibrated carries floors and ceilings an earlier recording of this
	// scenario committed. Each stands for as long as the capture run still
	// meets it; the calibration rule replaces only the ones it does not, so
	// a stack change that moves draws but not behaviour moves the pinned
	// digest, never a promise.
	Calibrated []Invariant
}

// sampleEvents draws one event per profile kind. Same-family windows (churn
// and crash share the liveness injector) are laid out sequentially on a
// per-family cursor so the schedule always validates; different families
// may overlap — that is what makes a scenario a chaos scenario.
func sampleEvents(cfg RecordConfig) []Event {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	intensity := cfg.Intensity
	if intensity <= 0 {
		intensity = 1
	}
	clamp := func(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }
	cursors := map[string]int{} // per-family next free tick
	modes := []string{"bit-flip", "truncate", "replay", "equivocate"}

	var events []Event
	for _, kind := range cfg.Profile {
		if kind == KindRevoke {
			count := cfg.Readers / 3
			if count < 1 {
				count = 1
			}
			events = append(events, Event{Tick: cfg.Ticks * 3 / 5, Kind: KindRevoke, Count: count})
			continue
		}
		if kind == KindRot {
			// One instant corruption burst, placed two fifths in: late
			// enough that a real keyspace exists to rot, early enough that
			// the sweeper has the rest of the run to find and repair it.
			events = append(events, Event{Tick: cfg.Ticks * 2 / 5, Kind: KindRot, Count: 8 + rng.Intn(5)})
			continue
		}
		fam := family(kind)
		start, ok := cursors[fam]
		if !ok {
			start = cfg.Ticks/12 + rng.Intn(cfg.Ticks/12+1)
		}
		dur := cfg.Ticks/6 + rng.Intn(cfg.Ticks/10+1)
		if start+dur > cfg.Ticks-2 {
			dur = cfg.Ticks - 2 - start
		}
		if dur < 1 {
			dur = 1
		}
		e := Event{Tick: start, Kind: kind, Dur: dur}
		switch kind {
		case KindChurn, KindCrash:
			e.Frac = clamp(0.2*intensity, 0.05, 0.6)
		case KindPartition:
			e.Groups = 2 + rng.Intn(2)
		case KindOverload:
			e.Frac = clamp(0.25*intensity, 0.05, 0.6)
			e.Capacity = 2
			e.Queue = 2
		case KindByzantine:
			e.Frac = clamp(0.25*intensity, 0.05, 0.6)
			e.Mode = modes[rng.Intn(len(modes))]
			e.Rate = clamp(0.5*intensity, 0.1, 1)
		case KindLoss:
			e.Rate = clamp(0.12*intensity, 0.02, 0.4)
		case KindCelebrity:
			e.Frac = clamp(0.6*intensity, 0.1, 1)
		}
		events = append(events, e)
		cursors[fam] = start + dur + 2
	}
	return events
}

// Record captures one scenario: sample a schedule, measure it, calibrate
// invariants with head-room, pin the expect counters, and prove the result
// replays cleanly (run-twice and workers 1 vs 8 DeepEqual, all invariants
// green). The returned report is the proving replay's.
func Record(cfg RecordConfig) (*Scenario, *ReplayReport, error) {
	sc := &Scenario{
		Name:          cfg.Name,
		Seed:          cfg.Seed,
		Ticks:         cfg.Ticks,
		Nodes:         cfg.Nodes,
		Replication:   cfg.Replication,
		Users:         cfg.Users,
		OpsPerTick:    cfg.OpsPerTick,
		Readers:       cfg.Readers,
		HealEvery:     cfg.HealEvery,
		GatePerTick:   cfg.GatePerTick,
		GateQueue:     cfg.GateQueue,
		GraphWeighted: cfg.GraphWeighted,
		SweepBudget:   cfg.SweepBudget,
		SweepChunk:    cfg.SweepChunk,
		Events:        sampleEvents(cfg),
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, nil, fmt.Errorf("record %s: sampled schedule invalid: %w", cfg.Name, err)
	}

	// Capture run: measure what the stack delivers under this schedule.
	res, err := Run(sc, RunConfig{Workers: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("record %s: capture run: %w", cfg.Name, err)
	}
	// Absolute guarantees must already hold at capture time — a violation
	// here is a stack bug, not a recordable scenario.
	if res.SurfacedCorruption > 0 {
		return nil, nil, fmt.Errorf("record %s: capture surfaced %d corrupt reads", cfg.Name, res.SurfacedCorruption)
	}
	if res.RevokedOpens > 0 {
		return nil, nil, fmt.Errorf("record %s: capture let %d revoked opens through", cfg.Name, res.RevokedOpens)
	}
	if res.MemberOpenFailures > 0 {
		return nil, nil, fmt.Errorf("record %s: capture denied %d member opens", cfg.Name, res.MemberOpenFailures)
	}

	// Calibrated invariants: the measured result with head-room, so the
	// file fails only when the stack regresses, not on noise (there is no
	// noise — but head-room keeps small intentional changes from churning
	// every committed scenario).
	floor := math.Floor(math.Max(0.5, res.ServedRate()-0.03)*1000) / 1000
	ceiling := math.Ceil((res.P99MS()*1.5+20)/10) * 10
	sc.Invariants = []Invariant{
		{Kind: InvLookupSuccessMin, Value: floor},
		{Kind: InvP99MaxMS, Value: ceiling},
		{Kind: InvMaxSurfacedCorruption, Value: 0},
	}
	if sc.Readers > 0 {
		sc.Invariants = append(sc.Invariants,
			Invariant{Kind: InvNoRevokedOpens},
			Invariant{Kind: InvNoMemberOpenFailures})
	}
	if sc.GatePerTick > 0 && res.ServerSheds >= 2 {
		sc.Invariants = append(sc.Invariants,
			Invariant{Kind: InvServerShedsMin, Value: float64(res.ServerSheds / 2)})
	}
	if sc.SweepChunk > 0 {
		// The budget ceiling is the configured budget itself — exceeding it
		// even once is a scheduler bug, so no head-room. The repair floor
		// takes half the measured repairs (head-room for intentional scrub
		// changes); the final audit pins the measured residue, which a
		// detect-or-repair sweeper should leave at zero.
		sc.Invariants = append(sc.Invariants,
			Invariant{Kind: InvSweepBudgetMsgsMax, Value: float64(sc.SweepBudget)},
			Invariant{Kind: InvFinalCorruptMax, Value: float64(res.FinalCorruptCopies)})
		if res.SweepRepaired >= 2 {
			sc.Invariants = append(sc.Invariants,
				Invariant{Kind: InvScrubRepairedMin, Value: float64(res.SweepRepaired / 2)})
		}
	}
	for i, inv := range sc.Invariants {
		for _, kept := range cfg.Calibrated {
			if kept.Kind == inv.Kind && len(Evaluate(&Scenario{Invariants: []Invariant{kept}}, res)) == 0 {
				sc.Invariants[i] = kept
			}
		}
	}
	sc.Expect = res.expect()
	sc.Normalize()

	// Prove the recorded file replays: determinism arms plus every
	// invariant and the pinned counters.
	report, err := Replay(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("record %s: proving replay: %w", cfg.Name, err)
	}
	if report.Failed() {
		return nil, nil, fmt.Errorf("record %s: recorded scenario fails its own checks: %v", cfg.Name, report.Violations)
	}
	return sc, report, nil
}

// BuiltinLibrary is the committed scenario set: one capture config per
// adversarial condition from the paper's analysis (Table I) plus the
// composites. `dosnbench -scenario-record-library` regenerates the files
// under scenarios/ from exactly these configs; a library test pins the
// committed bytes to them.
func BuiltinLibrary() []RecordConfig {
	return []RecordConfig{
		{
			// Churn burst: a third of the nodes flap offline and back.
			Name: "churn-burst", Seed: 101, Ticks: 80, Nodes: 24, Replication: 3,
			Users: 300, OpsPerTick: 6, Intensity: 1.6,
			Profile: []EventKind{KindChurn, KindLoss},
			// Calibrated while loss was one shared stream; still met now that
			// each link draws its own.
			Calibrated: []Invariant{{Kind: InvLookupSuccessMin, Value: 0.954}, {Kind: InvP99MaxMS, Value: 530}},
		},
		{
			// Region partition: the network splits into regions while
			// background churn continues.
			Name: "region-partition", Seed: 202, Ticks: 80, Nodes: 24, Replication: 3,
			Users: 300, OpsPerTick: 6,
			Profile: []EventKind{KindPartition, KindChurn},
		},
		{
			// Flash crowd: celebrity reads concentrate on one profile while
			// part of the fleet runs capacity-capped; server-side gates
			// shed by policy.
			Name: "flash-crowd", Seed: 303, Ticks: 80, Nodes: 24, Replication: 3,
			Users: 300, OpsPerTick: 10, GatePerTick: 2, GateQueue: 1, Intensity: 1.4,
			Profile: []EventKind{KindCelebrity, KindOverload},
			// Calibrated before replica ranking weighed errors and sheds.
			Calibrated: []Invariant{{Kind: InvP99MaxMS, Value: 850}},
		},
		{
			// Byzantine window: a fraction of replicas corrupt replies;
			// the verify layer must detect every one.
			Name: "byzantine-window", Seed: 404, Ticks: 80, Nodes: 24, Replication: 3,
			Users: 300, OpsPerTick: 6, HealEvery: 16,
			Profile: []EventKind{KindByzantine, KindLoss},
			// Calibrated while loss was one shared stream; still met now that
			// each link draws its own.
			Calibrated: []Invariant{{Kind: InvLookupSuccessMin, Value: 0.97}, {Kind: InvP99MaxMS, Value: 200}},
		},
		{
			// Revocation storm: a third of the privacy group is revoked
			// mid-run under churn; no revoked member may open anything
			// published after.
			Name: "revocation-storm", Seed: 505, Ticks: 80, Nodes: 24, Replication: 3,
			Users: 300, OpsPerTick: 6, Readers: 9,
			Profile: []EventKind{KindRevoke, KindChurn},
			// Calibrated before replica ranking weighed errors and sheds.
			Calibrated: []Invariant{{Kind: InvP99MaxMS, Value: 210}},
		},
		{
			// Correlated crash: nodes crash (state loss) together; the
			// anti-entropy healer restores replication between bursts.
			Name: "correlated-crash", Seed: 606, Ticks: 80, Nodes: 24, Replication: 3,
			Users: 300, OpsPerTick: 6, HealEvery: 10, Intensity: 1.4,
			Profile: []EventKind{KindCrash, KindLoss},
			// Calibrated while loss was one shared stream; still met now that
			// each link draws its own.
			Calibrated: []Invariant{{Kind: InvLookupSuccessMin, Value: 0.966}, {Kind: InvP99MaxMS, Value: 240}},
		},
		{
			// Scrub storm: a mid-run burst of silent at-rest bit rot with
			// the continuous sweeper active on a fixed per-tick message
			// budget. The sweep must detect and repair the rot (or the heal
			// pass must) before the end-of-run audit, without ever
			// overspending a tick.
			Name: "scrub-storm", Seed: 808, Ticks: 80, Nodes: 24, Replication: 3,
			Users: 300, OpsPerTick: 6, HealEvery: 16,
			SweepBudget: 256, SweepChunk: 8,
			Profile: []EventKind{KindRot, KindLoss},
			// Calibrated while loss was one shared stream; still met now that
			// each link draws its own. The repair floor was calibrated before
			// short writes were queued for the sweeper; it is still met.
			Calibrated: []Invariant{{Kind: InvLookupSuccessMin, Value: 0.97}, {Kind: InvP99MaxMS, Value: 200},
				{Kind: InvScrubRepairedMin, Value: 12}},
		},
		{
			// Kitchen sink: every fault family in one run, graph-weighted
			// workload, gates, healing, and a privacy group.
			Name: "kitchen-sink", Seed: 707, Ticks: 100, Nodes: 24, Replication: 3,
			Users: 400, OpsPerTick: 8, Readers: 6, HealEvery: 20,
			GatePerTick: 8, GateQueue: 4, GraphWeighted: true,
			Profile: []EventKind{KindChurn, KindPartition, KindOverload,
				KindByzantine, KindLoss, KindRevoke, KindCelebrity},
			// Calibrated while loss was one shared stream; still met now that
			// each link draws its own.
			Calibrated: []Invariant{{Kind: InvLookupSuccessMin, Value: 0.962}, {Kind: InvP99MaxMS, Value: 600}},
		},
	}
}

// SeededFailure is a hand-built scenario that violates its success floor:
// three benign events (a mild churn blip, a celebrity window, a light loss
// window) plus one fatal 20-tick four-region partition that leaves the
// client's region with a quarter of the nodes (a two-region split is ridden
// out by hedged replica reads; four regions strand enough replica sets to
// fail hard). The minimizer must strip the schedule to the partition alone
// — the known minimal failing schedule the convergence test and E24 assert.
func SeededFailure() *Scenario {
	return &Scenario{
		Name: "seeded-failure", Seed: 7, Ticks: 48, Nodes: 16, Replication: 3,
		Users: 150, OpsPerTick: 6,
		Events: []Event{
			{Tick: 4, Kind: KindChurn, Frac: 0.1, Dur: 4},
			{Tick: 10, Kind: KindCelebrity, Frac: 0.5, Dur: 8},
			{Tick: 16, Kind: KindLoss, Rate: 0.05, Dur: 4},
			{Tick: 22, Kind: KindPartition, Groups: 4, Dur: 20},
		},
		Invariants: []Invariant{{Kind: InvLookupSuccessMin, Value: 0.995}},
	}
}
