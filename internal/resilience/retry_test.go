package resilience

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for retry := 1; retry <= 6; retry++ {
		da := backoff(a, retry)
		db := backoff(b, retry)
		if da != db {
			t.Fatalf("retry %d: same seed, different backoff (%v vs %v)", retry, da, db)
		}
		if da < 0 || da > 240*time.Millisecond {
			t.Fatalf("retry %d: backoff %v outside jittered cap", retry, da)
		}
	}
	// Without jitter the sequence is the pure exponential, capped.
	want := []time.Duration{20, 40, 80, 160, 200}
	for i, w := range want {
		if got := backoff(nil, i+1); got != w*time.Millisecond {
			t.Fatalf("retry %d: backoff %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	calls := 0
	out, err := Do(nil, false, func(attempt int) error {
		calls++
		if attempt < 3 {
			return fmt.Errorf("net: %w", simnet.ErrDropped)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || out.Attempts != 3 {
		t.Fatalf("calls=%d attempts=%d, want 3", calls, out.Attempts)
	}
	if out.Backoff != 60*time.Millisecond { // 20 + 40
		t.Fatalf("backoff %v, want 60ms", out.Backoff)
	}
	if out.Fault != FaultNone {
		t.Fatalf("fault %v, want none", out.Fault)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	calls := 0
	out, err := Do(rand.New(rand.NewSource(1)), true, func(int) error {
		calls++
		return overlay.ErrNotFound
	})
	if calls != 1 {
		t.Fatalf("permanent fault retried: %d calls", calls)
	}
	if !errors.Is(err, overlay.ErrNotFound) || out.Fault != FaultPermanent {
		t.Fatalf("err=%v fault=%v", err, out.Fault)
	}
}

func TestDoAckLostRespectsIdempotency(t *testing.T) {
	ackLost := fmt.Errorf("%w: cause", simnet.ErrReplyLost)
	calls := 0
	_, err := Do(rand.New(rand.NewSource(1)), false, func(int) error {
		calls++
		return ackLost
	})
	if calls != 1 {
		t.Fatalf("non-idempotent op retried after ack loss: %d calls", calls)
	}
	if !errors.Is(err, simnet.ErrReplyLost) {
		t.Fatalf("err=%v", err)
	}
	calls = 0
	_, err = Do(rand.New(rand.NewSource(1)), true, func(int) error {
		calls++
		return ackLost
	})
	if calls != maxAttempts {
		t.Fatalf("idempotent op not retried after ack loss: %d calls", calls)
	}
	if !errors.Is(err, simnet.ErrReplyLost) {
		t.Fatalf("err=%v", err)
	}
}

// TestWorstCaseBackoff pins the most backoff one operation can be charged:
// the larger of the transient and overload schedules at each of its four
// retries, 24 + 60 + 180 + 200 = 464ms. Seeded five-attempt failure
// sequences over both fault classes must all stay under it.
func TestWorstCaseBackoff(t *testing.T) {
	var bound time.Duration
	for retry := 1; retry < maxAttempts; retry++ {
		transient := time.Duration(math.Round(float64(backoff(nil, retry)) * (1 + jitterFrac)))
		bound += max(transient, overloadBackoff(nil, retry))
	}
	if bound != 464*time.Millisecond {
		t.Fatalf("worst-case backoff %v, want 464ms", bound)
	}
	faults := []error{simnet.ErrDropped, simnet.ErrOverloaded}
	for seed := int64(0); seed < 10000; seed++ {
		pick := rand.New(rand.NewSource(-seed - 1))
		calls := 0
		out, err := Do(rand.New(rand.NewSource(seed)), true, func(int) error {
			calls++
			return faults[pick.Intn(len(faults))]
		})
		if calls != 5 || out.Attempts != 5 || err == nil {
			t.Fatalf("seed %d: %d calls, %d attempts, err %v; want 5 failed attempts", seed, calls, out.Attempts, err)
		}
		if out.Backoff >= bound {
			t.Fatalf("seed %d: backoff %v, want under %v", seed, out.Backoff, bound)
		}
	}
}
