package scenario

import (
	"errors"
	"testing"
)

func TestMinimizeConvergesToKnownMinimum(t *testing.T) {
	min, err := Minimize(SeededFailure(), 0)
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if min.OriginalEvents != 4 {
		t.Fatalf("original events = %d, want 4", min.OriginalEvents)
	}
	if min.MinimizedEvents != 1 {
		t.Fatalf("minimized to %d events, want 1: %+v", min.MinimizedEvents, min.Scenario.Events)
	}
	if got := min.Scenario.Events[0].Kind; got != KindPartition {
		t.Fatalf("surviving event kind = %s, want partition", got)
	}
	if len(min.Violated) != 1 || min.Violated[0] != InvLookupSuccessMin {
		t.Fatalf("violated = %v, want [lookup-success-min]", min.Violated)
	}
	if min.Runs > 400 {
		t.Fatalf("minimizer spent %d runs, budget 400", min.Runs)
	}
	if min.Scenario.Ticks >= SeededFailure().Ticks {
		t.Fatalf("ticks not truncated: %d", min.Scenario.Ticks)
	}
	if shrunk := 1 - float64(min.MinimizedEvents)/float64(min.OriginalEvents); shrunk < 0.74 {
		t.Fatalf("shrunk only %.0f%%", 100*shrunk)
	}

	// The minimal reproduction must itself still fail, and be replayable
	// as a committed file.
	parsed, err := Parse(min.Scenario.Format())
	if err != nil {
		t.Fatalf("minimal scenario does not round-trip: %v", err)
	}
	res, err := Run(parsed, RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("minimal run: %v", err)
	}
	if vs := Evaluate(parsed, res); len(vs) == 0 {
		t.Fatalf("minimal scenario no longer fails")
	}
}

func TestMinimizePassingScenarioRefused(t *testing.T) {
	sc := chaosScenario()
	sc.Invariants = []Invariant{{Kind: InvLookupSuccessMin, Value: 0.01}}
	if _, err := Minimize(sc, 0); !errors.Is(err, ErrScenarioPasses) {
		t.Fatalf("passing scenario minimized: %v", err)
	}
	sc.Invariants = nil
	if _, err := Minimize(sc, 0); !errors.Is(err, ErrScenarioPasses) {
		t.Fatalf("invariant-free scenario minimized: %v", err)
	}
}

func TestMinimizeBudgetRespected(t *testing.T) {
	min, err := Minimize(SeededFailure(), 3)
	if err != nil {
		t.Fatalf("minimize with tiny budget: %v", err)
	}
	if min.Runs > 3 {
		t.Fatalf("spent %d runs with budget 3", min.Runs)
	}
	// Whatever it returns under a starved budget must still fail.
	res, err := Run(min.Scenario, RunConfig{Workers: 1})
	if err != nil {
		t.Fatalf("starved minimal run: %v", err)
	}
	if vs := Evaluate(min.Scenario, res); len(vs) == 0 {
		t.Fatalf("starved minimization returned a passing scenario")
	}
}
