// Package resilience is the recovery layer between the DOSN core and the
// overlays: it turns the simulator's injectable faults (loss, churn,
// partitions — internal/overlay/simnet) into faults the framework actually
// recovers from.
//
// The paper's availability argument (Sections I and II-B) is that
// replication and caching keep profiles reachable while peers churn; every
// surveyed system pairs that redundancy with a recovery discipline —
// retries against replicas, failure detection, and background repair. This
// package supplies those disciplines as composable pieces:
//
//   - a typed fault taxonomy (Classify): Transient faults are worth
//     retrying, Permanent ones are not, and AckLost means the operation may
//     have been applied even though the caller saw an error — retry-safe
//     only for idempotent operations;
//   - one deterministic retry policy (Do): five attempts with exponential
//     backoff and seeded jitter, a harder schedule for overload, all
//     charged to the simulated latency so recovery cost stays measurable;
//   - a KV decorator (Wrap) adding retries, hedged reads across two more
//     replicas, and a per-node circuit breaker (Breaker) that skips nodes
//     observed down until a probe succeeds;
//   - pass-through to the overlay's anti-entropy self-healing
//     (overlay.Healer), so repair is driven through the same handle.
//
// Experiment E17 measures the layer: availability with and without it,
// under seeded loss and churn schedules, with the retry/hedging overhead
// reported in messages and simulated latency.
package resilience

import (
	"errors"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/load"
)

// Fault classifies an operation error by what recovery it admits.
type Fault int

// Fault classes.
const (
	// FaultNone means no error.
	FaultNone Fault = iota
	// FaultTransient faults (drops, offline nodes, partitions, exhausted
	// replica sets) may succeed on retry.
	FaultTransient
	// FaultAckLost means the request was delivered and handled but the
	// reply was lost: the operation may have been applied. Retrying is
	// safe only when the operation is idempotent.
	FaultAckLost
	// FaultPermanent faults (missing keys, unknown nodes or origins,
	// protocol errors) will not be fixed by retrying.
	FaultPermanent
	// FaultCorruption means a read returned bytes that failed integrity
	// verification: a Byzantine or bit-rotted replica. Retrying the *same*
	// node is pointless (it will serve the same bad bytes — or worse, lie
	// consistently); a retry directed at a *different* replica may succeed,
	// which is what RetryableElsewhere expresses. A corruption verdict also
	// counts as a breaker failure, so persistent corrupters are quarantined.
	FaultCorruption
	// FaultOverload means a node (its simulated capacity or its DHT
	// admission gate) shed the operation because the offered load exceeded
	// capacity. The node is online and honest — shed ≠ Byzantine, so
	// overload never taints the breaker's quarantine state — and the request
	// had no side effects, so retrying is always safe. But retrying *immediately against the same
	// node* is exactly how overload cascades: recovery must either go
	// elsewhere (a sibling replica has spare capacity) or back off harder
	// than for loss, which is what the overload backoff schedule does.
	FaultOverload
)

// String renders the fault class.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultAckLost:
		return "ack-lost"
	case FaultPermanent:
		return "permanent"
	case FaultCorruption:
		return "corruption"
	case FaultOverload:
		return "overload"
	default:
		return "fault(?)"
	}
}

// ErrCorrupt is the sentinel for integrity-verification failures: a replica
// served bytes whose checksum, key binding, or signature chain did not
// verify. Detection layers (the KV Verify hook, the scrub package) wrap it
// so Classify maps them onto FaultCorruption.
var ErrCorrupt = errors.New("resilience: read failed integrity verification")

// Classify maps any simnet or overlay error onto the fault taxonomy using
// errors.Is, so wrapped errors classify by their sentinel regardless of
// message decoration. Unknown errors classify as permanent: retrying a
// fault we cannot name is how retry storms start.
func Classify(err error) Fault {
	switch {
	case err == nil:
		return FaultNone
	// AckLost first: a lost reply wraps its delivery cause (e.g. a drop),
	// and the reply-was-lost semantics must win over the cause's class.
	case errors.Is(err, simnet.ErrReplyLost):
		return FaultAckLost
	case errors.Is(err, ErrCorrupt):
		return FaultCorruption
	case errors.Is(err, simnet.ErrOverloaded), errors.Is(err, load.ErrShed):
		return FaultOverload
	case errors.Is(err, simnet.ErrDropped),
		errors.Is(err, simnet.ErrNodeOffline),
		errors.Is(err, simnet.ErrPartitioned),
		errors.Is(err, overlay.ErrUnavailable):
		return FaultTransient
	default:
		return FaultPermanent
	}
}

// Retryable reports whether an operation that failed with fault f should be
// attempted again against the same endpoint; idempotent says whether
// re-applying the operation is harmless (required for AckLost retries).
// FaultCorruption is NOT retryable here: the same node will serve the same
// bad bytes. FaultOverload is retryable — a shed has no side effects — but
// retries use the harder overload backoff schedule (overloadBackoff).
func Retryable(f Fault, idempotent bool) bool {
	switch f {
	case FaultTransient, FaultOverload:
		return true
	case FaultAckLost:
		return idempotent
	default:
		return false
	}
}

// RetryableElsewhere reports whether fault f may clear when the retry can be
// directed at a different replica. It admits everything Retryable does plus
// FaultCorruption: another replica may hold an honest copy, and the breaker
// failure recorded with the corruption verdict steers the retry away from
// the corrupter.
func RetryableElsewhere(f Fault, idempotent bool) bool {
	return f == FaultCorruption || Retryable(f, idempotent)
}
