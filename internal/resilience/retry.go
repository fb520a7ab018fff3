package resilience

import (
	"fmt"
	"math/rand"
	"time"
)

// Policy is a deterministic retry policy: exponential backoff with seeded
// jitter, bounded by per-operation attempt and latency budgets. Backoff is
// simulated time — callers charge it to the operation's OpStats.Latency so
// the cost of recovering stays measurable, exactly like a message's
// propagation delay.
type Policy struct {
	// MaxAttempts bounds tries per operation, first attempt included
	// (>= 1; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff step (0 = uncapped).
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry (< 1 treated as 1).
	Multiplier float64
	// JitterFrac randomizes each step by ±JitterFrac of itself, in [0,1];
	// the jitter source is the caller's seeded RNG, keeping runs
	// reproducible.
	JitterFrac float64
	// LatencyBudget caps the total backoff charged per operation; a retry
	// whose backoff would exceed it is not attempted (0 = uncapped).
	LatencyBudget time.Duration
}

// DefaultPolicy retries up to 4 times beyond the first attempt, starting at
// 20ms and doubling, capped at 200ms per step and 1s total; overload
// retries grow their full-jitter ceiling 3x per step.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:   5,
		BaseDelay:     20 * time.Millisecond,
		MaxDelay:      200 * time.Millisecond,
		Multiplier:    2,
		JitterFrac:    0.2,
		LatencyBudget: time.Second,
	}
}

// Backoff returns the simulated delay before retry number retry (1-based),
// drawing jitter from rng.
func (p Policy) Backoff(rng *rand.Rand, retry int) time.Duration {
	if retry < 1 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= mult
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.JitterFrac > 0 && rng != nil {
		d += d * p.JitterFrac * (2*rng.Float64() - 1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// overloadMultiplier grows the FaultOverload backoff ceiling per retry.
// Overloaded nodes recover only when offered load actually falls, so these
// retries slow down faster than the transient schedule's Multiplier.
const overloadMultiplier = 3

// overloadBackoff is the FaultOverload schedule: the ceiling grows by
// overloadMultiplier per retry (from BaseDelay, capped at MaxDelay) and the
// delay is drawn uniformly from [0, ceiling] — full jitter, so a crowd of
// shed clients decorrelates instead of returning in synchronized waves.
func (p Policy) overloadBackoff(rng *rand.Rand, retry int) time.Duration {
	if retry < 1 {
		return 0
	}
	ceiling := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		ceiling *= overloadMultiplier
		if p.MaxDelay > 0 && ceiling > float64(p.MaxDelay) {
			break
		}
	}
	if p.MaxDelay > 0 && ceiling > float64(p.MaxDelay) {
		ceiling = float64(p.MaxDelay)
	}
	if rng == nil {
		return time.Duration(ceiling)
	}
	return time.Duration(rng.Float64() * ceiling)
}

// BackoffFor returns the simulated delay before retry number retry
// (1-based) after a failure of class fault: FaultOverload backs off on the
// multiplicative full-jitter schedule, every other retryable class keeps
// the standard exponential schedule.
func (p Policy) BackoffFor(rng *rand.Rand, retry int, fault Fault) time.Duration {
	if fault == FaultOverload {
		return p.overloadBackoff(rng, retry)
	}
	return p.Backoff(rng, retry)
}

// Outcome reports what a retried operation cost beyond its own attempts.
type Outcome struct {
	// Attempts is the number of tries made (>= 1).
	Attempts int
	// Backoff is the total simulated delay inserted between tries.
	Backoff time.Duration
	// Fault is the classification of the final error (FaultNone on
	// success).
	Fault Fault
}

// Do runs op under the policy: it retries while the returned error
// classifies as retryable (given idempotency) and the attempt and latency
// budgets allow. The attempt index passed to op is 1-based. Do returns the
// last error with the outcome; callers charge Outcome.Backoff to their
// operation's simulated latency.
func Do(p Policy, rng *rand.Rand, idempotent bool, op func(attempt int) error) (Outcome, error) {
	return DoWith(p, rng, func(f Fault) bool { return Retryable(f, idempotent) }, op)
}

// DoWith is Do with an explicit retryability predicate, for callers whose
// retries change what a fault class admits — a hedged read that re-resolves
// its replica set each attempt passes RetryableElsewhere, making corruption
// retryable because the retry lands on different nodes.
func DoWith(p Policy, rng *rand.Rand, retryable func(Fault) bool, op func(attempt int) error) (Outcome, error) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	out := Outcome{}
	var err error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		out.Attempts = attempt
		err = op(attempt)
		out.Fault = Classify(err)
		if err == nil || !retryable(out.Fault) {
			return out, err
		}
		if attempt == p.MaxAttempts {
			break
		}
		backoff := p.BackoffFor(rng, attempt, out.Fault)
		if p.LatencyBudget > 0 && out.Backoff+backoff > p.LatencyBudget {
			return out, fmt.Errorf("resilience: latency budget %v exhausted after %d attempts: %w", p.LatencyBudget, attempt, err)
		}
		out.Backoff += backoff
	}
	return out, fmt.Errorf("resilience: %d attempts exhausted: %w", out.Attempts, err)
}
