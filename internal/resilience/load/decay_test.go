package load

import (
	"math"
	"testing"
	"time"
)

// The idle-decay curve: with HalfLife H, a node's failure/shed EWMAs halve
// every H ticks and its latency EWMA halves its distance to the 10ms prior —
// all without a single new observation.
func TestTrackerIdleDecayCurve(t *testing.T) {
	const halfLife = 10
	cfg := TrackerConfig{
		Alpha:        1, // each observation sets the EWMA exactly
		ErrorPenalty: 4,
		ShedPenalty:  8,
		HalfLife:     halfLife,
	}

	cases := []struct {
		ticks        int
		wantShedRate float64 // 0.5^(ticks/halfLife)
		wantLatency  float64 // 10 + 40 * 0.5^(ticks/halfLife)
	}{
		{0, 1, 50},
		{halfLife / 2, math.Pow(0.5, 0.5), 10 + 40*math.Pow(0.5, 0.5)},
		{halfLife, 0.5, 30},
		{2 * halfLife, 0.25, 20},
		{5 * halfLife, math.Pow(0.5, 5), 10 + 40*math.Pow(0.5, 5)},
	}
	const tol = 1e-9
	for _, tc := range cases {
		tr := NewTracker(cfg)
		// One shed (sets shedRate to 1) then one error at 50ms (sets
		// latencyMS to 50 and failRate to 1, clearing shedRate — Alpha 1).
		// Use two nodes so each signal decays from a clean 1.0.
		tr.Observe("shedder", 0, OutcomeShed)
		tr.Observe("failer", 50*time.Millisecond, OutcomeError)
		for i := 0; i < tc.ticks; i++ {
			tr.Tick()
		}
		snap := tr.Snapshot()
		if len(snap) != 2 {
			t.Fatalf("snapshot has %d nodes, want 2", len(snap))
		}
		failer, shedder := snap[0], snap[1]
		if math.Abs(shedder.ShedRate-tc.wantShedRate) > tol {
			t.Errorf("after %d ticks: ShedRate = %v, want %v", tc.ticks, shedder.ShedRate, tc.wantShedRate)
		}
		if math.Abs(failer.FailRate-tc.wantShedRate) > tol { // same curve
			t.Errorf("after %d ticks: FailRate = %v, want %v", tc.ticks, failer.FailRate, tc.wantShedRate)
		}
		if math.Abs(failer.LatencyMS-tc.wantLatency) > tol {
			t.Errorf("after %d ticks: LatencyMS = %v, want %v", tc.ticks, failer.LatencyMS, tc.wantLatency)
		}
	}
}

// Decay rehabilitates ranking: a heavily shedding node is ranked last
// right after the incident but returns to baseline competitiveness once
// enough idle ticks pass.
func TestTrackerDecayRehabilitatesRanking(t *testing.T) {
	cfg := DefaultTrackerConfig()
	tr := NewTracker(cfg)
	for i := 0; i < 20; i++ {
		tr.Observe("hot", 0, OutcomeShed)
	}
	tr.Observe("calm", 10*time.Millisecond, OutcomeOK)
	if got := tr.Rank([]string{"hot", "calm"}); got[0] != "calm" {
		t.Fatalf("freshly shedding node ranked first: %v", got)
	}
	// 20 half-lives of idle time: hot's shed EWMA is ~1e-6, so input order
	// (the tie-break) should put "hot" first again.
	for i := 0; i < 20*cfg.HalfLife; i++ {
		tr.Tick()
	}
	if got := tr.Score("hot"); got > tr.Score("calm")*1.01 {
		t.Fatalf("idle node never rehabilitated: hot=%v calm=%v", got, tr.Score("calm"))
	}
}

// HalfLife 0 disables decay entirely; nil trackers are safe to tick.
func TestTrackerNoDecayWithoutHalfLife(t *testing.T) {
	tr := NewTracker(TrackerConfig{Alpha: 1})
	tr.Observe("n", 0, OutcomeShed)
	for i := 0; i < 100; i++ {
		tr.Tick()
	}
	if got := tr.Snapshot()[0].ShedRate; got != 1 {
		t.Fatalf("ShedRate decayed to %v with HalfLife 0", got)
	}
	var nilTr *Tracker
	nilTr.Tick()
}
