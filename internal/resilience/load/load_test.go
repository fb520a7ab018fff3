package load

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"godosn/internal/telemetry"
)

func TestGateAdmitsQueuesThenSheds(t *testing.T) {
	g := NewGate(GateConfig{PerTick: 2, QueueDepth: 2})
	// Tokens 1-2: free. 3-4: queued at positions 1, 2. 5+: shed.
	wantWaits := []time.Duration{0, 0, waitPerSlot, 2 * waitPerSlot}
	for i, want := range wantWaits {
		wait, err := g.Admit()
		if err != nil {
			t.Fatalf("admit %d: %v", i+1, err)
		}
		if wait != want {
			t.Fatalf("admit %d wait %v, want %v", i+1, wait, want)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := g.Admit(); !errors.Is(err, ErrShed) {
			t.Fatalf("over-budget admit: %v, want ErrShed", err)
		}
	}
}

func TestGateTickRepaysBorrowedTokens(t *testing.T) {
	g := NewGate(GateConfig{PerTick: 1, QueueDepth: 1})
	if _, err := g.Admit(); err != nil { // token
		t.Fatalf("admit 1: %v", err)
	}
	if _, err := g.Admit(); err != nil { // queued (borrows)
		t.Fatalf("admit 2: %v", err)
	}
	if _, err := g.Admit(); !errors.Is(err, ErrShed) {
		t.Fatalf("admit 3: %v, want ErrShed", err)
	}
	// One tick repays the borrowed token but leaves the bucket empty: the
	// next admit queues again rather than passing free.
	g.Tick()
	if wait, err := g.Admit(); err != nil || wait != waitPerSlot {
		t.Fatalf("post-tick admit: wait %v err %v, want queued at position 1", wait, err)
	}
	// Two more ticks repay the debt and refill: admission is free again.
	g.Tick()
	g.Tick()
	if wait, err := g.Admit(); err != nil || wait != 0 {
		t.Fatalf("refilled admit: wait %v err %v, want free", wait, err)
	}
}

func TestGateNilAndDisabled(t *testing.T) {
	if g := NewGate(GateConfig{}); g != nil {
		t.Fatalf("PerTick 0 should disable the gate, got %+v", g)
	}
	var g *Gate
	g.Tick()
	for i := 0; i < 100; i++ {
		if wait, err := g.Admit(); err != nil || wait != 0 {
			t.Fatalf("nil gate must admit free, got wait %v err %v", wait, err)
		}
	}
}

// counterValue looks a counter up in a snapshot (-1 when absent).
func counterValue(snap telemetry.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

func TestTrackerScoresAndRanks(t *testing.T) {
	tr := NewTracker(DefaultTrackerConfig())
	// n-fast serves quickly, n-slow is sluggish, n-shedding refuses.
	for i := 0; i < 8; i++ {
		tr.Observe("n-fast", 5*time.Millisecond, OutcomeOK)
		tr.Observe("n-slow", 60*time.Millisecond, OutcomeOK)
		tr.Observe("n-shedding", 0, OutcomeShed)
	}
	got := tr.Rank([]string{"n-shedding", "n-slow", "n-fast", "n-unseen"})
	want := []string{"n-fast", "n-unseen", "n-slow", "n-shedding"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank %v, want %v", got, want)
	}
	if s := tr.Score("n-shedding"); s <= tr.Score("n-slow") {
		t.Fatalf("shedding node score %.2f not worse than slow node %.2f", s, tr.Score("n-slow"))
	}
	// The unseen node competes at the prior, not at zero.
	if s := tr.Score("n-unseen"); s != 10 {
		t.Fatalf("unseen score %.2f, want the 10ms prior", s)
	}
}

func TestTrackerErrorsInflateScore(t *testing.T) {
	tr := NewTracker(DefaultTrackerConfig())
	for i := 0; i < 8; i++ {
		tr.Observe("ok", 10*time.Millisecond, OutcomeOK)
		tr.Observe("flaky", 10*time.Millisecond, OutcomeError)
	}
	if so, sf := tr.Score("ok"), tr.Score("flaky"); sf <= so {
		t.Fatalf("flaky score %.2f not worse than healthy %.2f at equal latency", sf, so)
	}
}

// Every tracker weighs errors and sheds by the same rule, whatever else its
// config sets: built in the scenario runtime's shape (half-life 8), with
// α = 1 so one observation sets each EWMA exactly, a node that shed once
// scores 10 × (1 + 8) and one that failed once at 10 ms scores 10 × (1 + 4).
func TestTrackerWeighsErrorsAndShedsInEveryConfig(t *testing.T) {
	tr := NewTracker(TrackerConfig{Alpha: 1, HalfLife: 8})
	tr.Observe("shedder", 0, OutcomeShed)
	tr.Observe("failer", 10*time.Millisecond, OutcomeError)
	if got := tr.Score("shedder"); got != 90 {
		t.Fatalf("node that shed once scores %v, want 90", got)
	}
	if got := tr.Score("failer"); got != 50 {
		t.Fatalf("node that errored once at 10ms scores %v, want 50", got)
	}
}

func TestTrackerRecovers(t *testing.T) {
	tr := NewTracker(DefaultTrackerConfig())
	for i := 0; i < 8; i++ {
		tr.Observe("n", 0, OutcomeShed)
	}
	overloaded := tr.Score("n")
	for i := 0; i < 30; i++ {
		tr.Observe("n", 5*time.Millisecond, OutcomeOK)
	}
	if rec := tr.Score("n"); rec >= overloaded/4 {
		t.Fatalf("score %.2f did not recover from %.2f after sustained health", rec, overloaded)
	}
}

func TestTrackerRankIsStableAndPure(t *testing.T) {
	tr := NewTracker(DefaultTrackerConfig())
	in := []string{"c", "a", "b"}
	got := tr.Rank(in)
	// All unseen: equal scores, so input order is preserved...
	if !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Fatalf("tie rank %v, want input order", got)
	}
	// ...and the input slice is not mutated once scores diverge.
	tr.Observe("b", time.Millisecond, OutcomeOK)
	out := tr.Rank(in)
	if out[0] != "b" {
		t.Fatalf("rank %v, want b first", out)
	}
	if !reflect.DeepEqual(in, []string{"c", "a", "b"}) {
		t.Fatalf("Rank mutated its input: %v", in)
	}
}

func TestTrackerDeterministicAcrossRuns(t *testing.T) {
	run := func() []NodeScore {
		tr := NewTracker(DefaultTrackerConfig())
		for i := 0; i < 50; i++ {
			tr.Observe("a", time.Duration(i%7)*time.Millisecond, Outcome(i%3))
			tr.Observe("b", time.Duration(i%11)*time.Millisecond, OutcomeOK)
		}
		return tr.Snapshot()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ across identical runs:\n%v\n%v", a, b)
	}
}

func TestTrackerNil(t *testing.T) {
	var tr *Tracker
	tr.Observe("n", time.Millisecond, OutcomeOK)
	tr.SetTelemetry(nil)
	in := []string{"b", "a"}
	if got := tr.Rank(in); !reflect.DeepEqual(got, in) {
		t.Fatalf("nil tracker rank %v, want identity", got)
	}
	if tr.Score("n") != 0 || tr.Snapshot() != nil {
		t.Fatalf("nil tracker must report zero state")
	}
	if NewTracker(TrackerConfig{}) != nil {
		t.Fatalf("zero config must disable the tracker")
	}
}

func TestTrackerTelemetry(t *testing.T) {
	tr := NewTracker(DefaultTrackerConfig())
	reg := telemetry.NewRegistry()
	tr.SetTelemetry(reg)
	tr.Observe("n1", 20*time.Millisecond, OutcomeOK)
	snap := reg.Snapshot()
	if got := counterValue(snap, "load_observations_total"); got != 1 {
		t.Fatalf("observations counter %d, want 1", got)
	}
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "load_health_score_n1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing health-score gauge, gauges: %v", snap.Gauges)
	}
}
