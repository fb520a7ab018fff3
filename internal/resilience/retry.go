package resilience

import (
	"fmt"
	"math/rand"
	"time"
)

// The retry policy: up to 4 retries beyond the first attempt, with
// exponential backoff from 20ms doubling per retry, ±20% seeded jitter, and
// a 200ms cap per step; overload retries grow their full-jitter ceiling 3x
// per step under the same cap. Backoff is simulated time — callers charge it
// to the operation's OpStats.Latency so the cost of recovering stays
// measurable, exactly like a message's propagation delay. The worst
// per-operation total, taking the larger schedule at each retry, is
// 24 + 60 + 180 + 200 = 464ms.
const (
	maxAttempts        = 5
	baseDelay          = 20 * time.Millisecond
	maxDelay           = 200 * time.Millisecond
	backoffMultiplier  = 2
	jitterFrac         = 0.2
	overloadMultiplier = 3 // overloaded nodes recover only when offered load falls
)

// backoff returns the standard simulated delay before retry number retry
// (1-based), drawing jitter from rng (nil: no jitter).
func backoff(rng *rand.Rand, retry int) time.Duration {
	if retry < 1 {
		return 0
	}
	d := float64(baseDelay)
	for i := 1; i < retry && d < float64(maxDelay); i++ {
		d *= backoffMultiplier
	}
	if d > float64(maxDelay) {
		d = float64(maxDelay)
	}
	if rng != nil {
		d += d * jitterFrac * (2*rng.Float64() - 1)
	}
	return time.Duration(d)
}

// overloadBackoff is the FaultOverload schedule: the ceiling grows by
// overloadMultiplier per retry (from baseDelay, capped at maxDelay) and the
// delay is drawn uniformly from [0, ceiling] — full jitter, so a crowd of
// shed clients decorrelates instead of returning in synchronized waves. A
// nil rng returns the ceiling.
func overloadBackoff(rng *rand.Rand, retry int) time.Duration {
	if retry < 1 {
		return 0
	}
	ceiling := float64(baseDelay)
	for i := 1; i < retry && ceiling < float64(maxDelay); i++ {
		ceiling *= overloadMultiplier
	}
	if ceiling > float64(maxDelay) {
		ceiling = float64(maxDelay)
	}
	if rng == nil {
		return time.Duration(ceiling)
	}
	return time.Duration(rng.Float64() * ceiling)
}

// backoffFor returns the simulated delay before retry number retry
// (1-based) after a failure of class fault: FaultOverload backs off on the
// multiplicative full-jitter schedule, every other retryable class keeps
// the standard exponential schedule.
func backoffFor(rng *rand.Rand, retry int, fault Fault) time.Duration {
	if fault == FaultOverload {
		return overloadBackoff(rng, retry)
	}
	return backoff(rng, retry)
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

// Do runs op under the retry policy: it retries while the returned error
// classifies as retryable (given idempotency) and attempts remain. The
// attempt index passed to op is 1-based. Do returns the last error with the
// outcome; callers charge Outcome.Backoff to their operation's simulated
// latency.
func Do(rng *rand.Rand, idempotent bool, op func(attempt int) error) (Outcome, error) {
	return DoWith(rng, func(f Fault) bool { return Retryable(f, idempotent) }, op)
}

// DoWith is Do with an explicit retryability predicate, for callers whose
// retries change what a fault class admits — a hedged read that re-resolves
// its replica set each attempt passes RetryableElsewhere, making corruption
// retryable because the retry lands on different nodes.
func DoWith(rng *rand.Rand, retryable func(Fault) bool, op func(attempt int) error) (Outcome, error) {
	out := Outcome{}
	var err error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		out.Attempts = attempt
		err = op(attempt)
		out.Fault = Classify(err)
		if err == nil || !retryable(out.Fault) {
			return out, err
		}
		if attempt < maxAttempts {
			out.Backoff += backoffFor(rng, attempt, out.Fault)
		}
	}
	return out, fmt.Errorf("resilience: %d attempts exhausted: %w", out.Attempts, err)
}
