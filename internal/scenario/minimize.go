package scenario

import (
	"errors"
	"fmt"
)

// This file is the minimizer: given a failing scenario it produces the
// smallest schedule that still violates the same invariants, so the person
// debugging a red chaos run stares at one fatal event instead of a dozen
// incidental ones. Three phases, each preserving "still fails":
//
//  1. ddmin (delta debugging) over the event list — remove whole events.
//  2. Per-event parameter shrinking — halve durations, fractions, rates
//     and counts toward their floors.
//  3. Tick truncation — cut the run short just after the last event ends.
//
// Every candidate is a full deterministic Run, so minimization is exact:
// no flaky bisection, no repeated trials. Node subsets are derived from
// (seed, tick, kind), never from event indices, so removing an event does
// not perturb the ones that remain — the property that makes ddmin sound
// here. The run budget caps total work; when it runs out the best
// already-confirmed failing scenario is returned.

// ErrScenarioPasses reports that the scenario given to Minimize does not
// violate any of its invariants, so there is nothing to minimize.
var ErrScenarioPasses = errors.New("scenario: minimize: scenario violates no invariant")

// MinimizeResult is the outcome of a minimization.
type MinimizeResult struct {
	// Scenario is the minimal failing scenario (normalized, expect
	// counters dropped, invariants reduced to the violated kinds).
	Scenario *Scenario
	// Violated lists the invariant kinds the original scenario violated —
	// the target the minimizer preserved.
	Violated []InvariantKind
	// Runs is how many candidate runs were spent.
	Runs int
	// OriginalEvents and MinimizedEvents count the schedule before and
	// after.
	OriginalEvents  int
	MinimizedEvents int
}

// minimizer carries the shared state of one minimization.
type minimizer struct {
	base    *Scenario // header + target invariants; events/ticks vary per candidate
	targets map[InvariantKind]bool
	runs    int
	maxRuns int
}

// violatesTarget runs a candidate and reports whether any target invariant
// still fails. Out of budget or a run error count as "does not fail", which
// only makes the minimizer conservative (it keeps the larger scenario).
func (m *minimizer) violatesTarget(events []Event, ticks int) bool {
	if m.runs >= m.maxRuns {
		return false
	}
	cand := m.base.Clone()
	cand.Events = cloneEvents(events)
	cand.Ticks = ticks
	cand.Normalize()
	if err := cand.Validate(); err != nil {
		return false
	}
	m.runs++
	res, err := Run(cand, RunConfig{Workers: 1})
	if err != nil {
		return false
	}
	for _, v := range Evaluate(cand, res) {
		if m.targets[InvariantKind(v.Kind)] {
			return true
		}
	}
	return false
}

func cloneEvents(events []Event) []Event {
	out := make([]Event, len(events))
	copy(out, events)
	return out
}

// ddmin is classic delta debugging over the event list: try dropping
// complements at increasing granularity until no chunk can be removed.
func (m *minimizer) ddmin(events []Event, ticks int) []Event {
	n := 2
	for len(events) >= 2 {
		chunk := (len(events) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(events); lo += chunk {
			hi := lo + chunk
			if hi > len(events) {
				hi = len(events)
			}
			complement := append(cloneEvents(events[:lo]), events[hi:]...)
			if len(complement) == 0 {
				continue
			}
			if m.violatesTarget(complement, ticks) {
				events = complement
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(events) {
				break
			}
			n *= 2
			if n > len(events) {
				n = len(events)
			}
		}
	}
	return events
}

// shrinkParams halves each event's magnitude parameters toward their floors
// while the scenario still fails, repeating whole passes to a fixpoint.
func (m *minimizer) shrinkParams(events []Event, ticks int) []Event {
	type step struct {
		apply func(*Event) bool // mutate toward smaller; false when at floor
	}
	stepsFor := func(e Event) []step {
		var steps []step
		if e.Dur > 1 {
			steps = append(steps, step{func(ev *Event) bool {
				if ev.Dur <= 1 {
					return false
				}
				ev.Dur /= 2
				return true
			}})
		}
		if e.Frac > 0 {
			steps = append(steps, step{func(ev *Event) bool {
				next := ev.Frac / 2
				if next < 0.1 {
					return false
				}
				ev.Frac = next
				return true
			}})
		}
		if e.Rate > 0 {
			steps = append(steps, step{func(ev *Event) bool {
				next := ev.Rate / 2
				if next < 0.05 {
					return false
				}
				ev.Rate = next
				return true
			}})
		}
		if e.Count > 1 {
			steps = append(steps, step{func(ev *Event) bool {
				if ev.Count <= 1 {
					return false
				}
				ev.Count /= 2
				return true
			}})
		}
		if e.Groups > 2 {
			steps = append(steps, step{func(ev *Event) bool {
				if ev.Groups <= 2 {
					return false
				}
				ev.Groups = 2
				return true
			}})
		}
		return steps
	}

	for changed := true; changed && m.runs < m.maxRuns; {
		changed = false
		for i := range events {
			for _, st := range stepsFor(events[i]) {
				for m.runs < m.maxRuns {
					cand := cloneEvents(events)
					if !st.apply(&cand[i]) {
						break
					}
					if !m.violatesTarget(cand, ticks) {
						break
					}
					events = cand
					changed = true
				}
			}
		}
	}
	return events
}

// truncateTicks cuts the run to just past the last event if that still
// fails (a failure inside a window usually needs a few post-window ticks of
// reads to register in the rate, hence the small tail).
func (m *minimizer) truncateTicks(events []Event, ticks int) int {
	lastEnd := 0
	for _, e := range events {
		end := e.End()
		if e.Dur == 0 {
			end = e.Tick + 1
		}
		if end > lastEnd {
			lastEnd = end
		}
	}
	for _, tail := range []int{2, 5, 10} {
		cand := lastEnd + tail
		if cand >= ticks {
			break
		}
		if m.violatesTarget(events, cand) {
			return cand
		}
	}
	return ticks
}

// Minimize reduces sc to a minimal scenario that violates the same
// invariant kinds sc violates. maxRuns bounds the candidate runs spent
// (<=0 means 400). Returns ErrScenarioPasses if sc does not fail.
func Minimize(sc *Scenario, maxRuns int) (*MinimizeResult, error) {
	if maxRuns <= 0 {
		maxRuns = 400
	}
	base := sc.Clone()
	base.Expect = nil // minimize invariant violations, not counter drift
	base.Normalize()
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if len(base.Invariants) == 0 {
		return nil, fmt.Errorf("%w: no invariants declared", ErrScenarioPasses)
	}

	m := &minimizer{base: base, targets: map[InvariantKind]bool{}, maxRuns: maxRuns}

	// Establish the target: which invariants does the original violate?
	m.runs++
	res, err := Run(base, RunConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	violated := Evaluate(base, res)
	if len(violated) == 0 {
		return nil, ErrScenarioPasses
	}
	var kinds []InvariantKind
	for _, v := range violated {
		if !m.targets[InvariantKind(v.Kind)] {
			m.targets[InvariantKind(v.Kind)] = true
			kinds = append(kinds, InvariantKind(v.Kind))
		}
	}
	// Candidates carry only the target invariants; the rest are noise.
	var kept []Invariant
	for _, inv := range base.Invariants {
		if m.targets[inv.Kind] {
			kept = append(kept, inv)
		}
	}
	base.Invariants = kept

	events := cloneEvents(base.Events)
	ticks := base.Ticks
	events = m.ddmin(events, ticks)
	events = m.shrinkParams(events, ticks)
	ticks = m.truncateTicks(events, ticks)

	min := base.Clone()
	min.Events = events
	min.Ticks = ticks
	min.Normalize()
	if err := min.Validate(); err != nil {
		// Cannot happen: every accepted candidate validated before running.
		return nil, err
	}
	return &MinimizeResult{
		Scenario:        min,
		Violated:        kinds,
		Runs:            m.runs,
		OriginalEvents:  len(sc.Events),
		MinimizedEvents: len(events),
	}, nil
}
