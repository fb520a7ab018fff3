package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"godosn/internal/stack"
)

// chaosScenario exercises every fault family plus the privacy track in one
// short run — the determinism workhorse for these tests.
func chaosScenario() *Scenario {
	return &Scenario{
		Name: "test-chaos", Seed: 42, Ticks: 30, Nodes: 10, Replication: 3,
		Users: 60, OpsPerTick: 5, Readers: 5, HealEvery: 8,
		GatePerTick: 3, GateQueue: 2,
		Events: []Event{
			{Tick: 2, Kind: KindChurn, Frac: 0.25, Dur: 4},
			{Tick: 4, Kind: KindLoss, Rate: 0.1, Dur: 5},
			{Tick: 8, Kind: KindCrash, Frac: 0.25, Dur: 4},
			{Tick: 10, Kind: KindOverload, Frac: 0.3, Capacity: 1, Queue: 1, Dur: 5},
			{Tick: 13, Kind: KindByzantine, Frac: 0.3, Mode: "bit-flip", Rate: 0.6, Dur: 5},
			{Tick: 16, Kind: KindRevoke, Count: 2},
			{Tick: 20, Kind: KindCelebrity, Frac: 0.6, Dur: 6},
		},
	}
}

func TestRunDeterministicTwice(t *testing.T) {
	a, err := Run(chaosScenario(), RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := Run(chaosScenario(), RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("back-to-back runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Reads == 0 || a.Writes == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

func TestRunWorkerCountInvisible(t *testing.T) {
	// The revocation storm re-encrypts the archive; worker parallelism in
	// that path must not change a single result field.
	one, err := Run(chaosScenario(), RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	eight, err := Run(chaosScenario(), RunConfig{Workers: 8})
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("workers 1 vs 8 diverged:\n%+v\nvs\n%+v", one, eight)
	}
	if one.Revoked != 2 || one.RevokedAttempts == 0 {
		t.Fatalf("revocation track did not run: %+v", one)
	}
	if one.RevokedOpens != 0 {
		t.Fatalf("revoked members opened %d post-revocation envelopes", one.RevokedOpens)
	}
}

func TestRunServerGatesShed(t *testing.T) {
	sc := chaosScenario()
	res, err := Run(sc, RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var sum int64
	for _, v := range res.ServerShedsByNode {
		sum += v
	}
	if sum != res.ServerSheds {
		t.Fatalf("per-node sheds sum %d != total %d", sum, res.ServerSheds)
	}
}

func TestReplayPassesAndChecksExpect(t *testing.T) {
	sc := chaosScenario()
	res, err := Run(sc, RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	sc.Expect = res.expect()
	if sc.Expect.Detected == 0 || sc.Expect.Repaired == 0 {
		t.Fatalf("chaos capture detected %d and repaired %d; want both > 0", sc.Expect.Detected, sc.Expect.Repaired)
	}
	report, err := Replay(sc)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if report.Failed() {
		t.Fatalf("replay violations: %v", report.Violations)
	}

	// A tampered digest must surface as an expect violation.
	sc.Expect.Digest ^= 1
	report, err = Replay(sc)
	if err != nil {
		t.Fatalf("tampered replay: %v", err)
	}
	if !report.Failed() {
		t.Fatalf("tampered expect digest not detected")
	}
	sc.Expect.Digest ^= 1

	// So must a run that served the same bytes but read a liar or
	// repaired a copy once more or less often.
	for _, field := range []string{"detected", "repaired"} {
		e := *sc.Expect
		if field == "detected" {
			e.Detected++
		} else {
			e.Repaired--
		}
		tampered := &Scenario{Expect: &e}
		vs := tampered.CheckExpect(report.Result)
		if len(vs) != 1 || !strings.HasPrefix(vs[0].Detail, field+" ") {
			t.Errorf("tampered expect %s: violations %v, want one naming it", field, vs)
		}
	}
}

func TestEvaluateFloorViolation(t *testing.T) {
	sf := SeededFailure()
	res, err := Run(sf, RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	vs := Evaluate(sf, res)
	if len(vs) != 1 || vs[0].Kind != string(InvLookupSuccessMin) {
		t.Fatalf("seeded failure violations = %v, want one lookup-success-min", vs)
	}
	if res.ServedRate() >= 0.995 {
		t.Fatalf("seeded failure served %.4f, expected below the 0.995 floor", res.ServedRate())
	}
}

func TestRunRejectsInvalidScenario(t *testing.T) {
	sc := chaosScenario()
	sc.Nodes = 0
	if _, err := Run(sc, RunConfig{Workers: 1}); !errors.Is(err, ErrScenario) {
		t.Fatalf("invalid scenario ran: %v", err)
	}
}

func TestEventSubsetsIndexIndependent(t *testing.T) {
	// pickNodes must depend only on (seed, tick, kind): dropping other
	// events from the schedule must not change which nodes an event hits —
	// the property delta debugging relies on.
	names := stack.NodeNames("n%03d", 12)
	e := Event{Tick: 7, Kind: KindChurn, Frac: 0.4, Dur: 3}
	a := pickNodes(99, e, names)
	b := pickNodes(99, e, names)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pickNodes not deterministic: %v vs %v", a, b)
	}
	for _, id := range a {
		if id == names[0] {
			t.Fatalf("client node %s faulted by pickNodes", id)
		}
	}
	other := pickNodes(99, Event{Tick: 7, Kind: KindCrash, Frac: 0.4, Dur: 3}, names)
	if reflect.DeepEqual(a, other) {
		t.Fatalf("different kinds at the same tick picked identical subsets — kind not folded into the key")
	}
}
