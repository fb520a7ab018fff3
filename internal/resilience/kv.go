package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	cachepkg "godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/resilience/load"
	"godosn/internal/telemetry"
)

// ErrNoHealer reports that the wrapped overlay has no self-healing pass.
var ErrNoHealer = errors.New("resilience: overlay does not support healing")

// VerifyFunc checks bytes read for a key against an integrity discipline
// (checksummed record, signed chain). A non-nil return condemns the read:
// the KV treats it as a FaultCorruption and never surfaces the bytes.
type VerifyFunc func(key string, value []byte) error

// hedgeWidth is the number of additional replicas raced when the primary
// read fails or misses. Only effective when the wrapped overlay implements
// overlay.ReplicaKV.
const hedgeWidth = 2

// Config parameterizes the resilient KV decorator. The retry policy
// (retry.go), the hedge width and the breaker (health.go) are fixed.
type Config struct {
	// Seed drives retry jitter deterministically.
	Seed int64
	// Verify, when set, is applied to every value read before it is
	// returned: reads that fail verification are rejected (detect-or-fail,
	// never silent), count as breaker failures against the serving replica,
	// and are retried against other replicas when the overlay can address
	// them.
	Verify VerifyFunc
	// Cache configures the verified-value cache (cache.go): repeat lookups
	// of a key are served from memory without re-fetching or re-verifying,
	// and hand every reader the cached bytes themselves (see Lookup).
	// The zero value (Capacity 0) disables it, preserving the exact RPC
	// and seeded-RNG sequence of an uncached KV. Coherence: Store
	// invalidates the key, a breaker quarantine bumps the whole cache (and
	// the overlay's route cache), and the scrubber invalidates keys it
	// found divergent or condemned via SetInvalidator — a cached value
	// never outlives a condemnation of its holder group.
	Cache cachepkg.Config
	// Health configures the EWMA replica-health tracker (load.Tracker):
	// every per-replica fetch feeds an observation (latency; served,
	// errored, or shed), and hedged reads rank their candidates
	// healthiest-first instead of canonical order — so a flash-crowded or
	// flaky replica is tried last while its siblings have spare capacity.
	// When the overlay supports it (overlay.ReplicaRankable) the same
	// ranking is installed as the overlay's replica-selection hook. The
	// zero value (Alpha 0) disables ranking entirely, preserving the exact
	// replica order of an unranked KV.
	Health load.TrackerConfig
}

// DefaultConfig is the decorator with no verification, value cache or
// health ranking: retries, hedged reads and the breaker only.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed}
}

// Metrics counts what the resilience layer did — the measurable overhead
// of recovery, reported by experiment E17.
type Metrics struct {
	// Ops is the number of Store/Lookup calls served.
	Ops int
	// Attempts is the total tries across all operations.
	Attempts int
	// Retries is Attempts minus first tries.
	Retries int
	// Hedges is the number of hedged replica reads issued.
	Hedges int
	// BreakerSkips counts replicas skipped because their circuit was open.
	BreakerSkips int
	// CorruptReads counts replica reads whose bytes failed verification —
	// every one was detected and rejected, never returned to the caller.
	CorruptReads int
	// Batches counts PutBatch/GetBatch calls served.
	Batches int
	// BatchKeys is the total keys carried by those batches.
	BatchKeys int
	// BatchFallbacks counts keys a batch rescued through the single-key
	// resilient path after a per-key batch fault (corrupt bytes, unreachable
	// group) — the measurable cost of per-key fault isolation.
	BatchFallbacks int
	// Failures is the number of operations that still failed.
	Failures int
	// Backoff is the total simulated retry delay charged to operations.
	Backoff time.Duration
}

// KV decorates an overlay.KV with typed-fault retries, hedged replica
// reads, and a per-node circuit breaker. All recovery costs (extra
// messages, backoff delay) are charged to the returned OpStats so
// experiments compare availability and cost honestly. It is safe for
// concurrent use when the wrapped overlay is.
type KV struct {
	inner     overlay.KV
	batch     overlay.BatchKV   // nil when inner cannot serve batches
	replicas  overlay.ReplicaKV // nil when inner cannot address replicas
	healer    overlay.Healer    // nil when inner cannot self-heal
	spanInner overlay.SpanKV    // nil when inner cannot attribute spans
	cfg       Config
	breaker   *Breaker
	rng       *rand.Rand              // jitter source; safe via lockedSource
	values    *cachepkg.Cache[[]byte] // verified-value cache (cache.go); nil = uncached
	health    *load.Tracker           // replica-health ranking; nil = canonical order

	mu      sync.Mutex
	metrics Metrics
	tel     *kvTelemetry // nil until SetTelemetry
}

var (
	_ overlay.KV     = (*KV)(nil)
	_ overlay.SpanKV = (*KV)(nil)
)

// kvTelemetry holds the decorator's resolved registry instruments. The
// Metrics struct stays the source of truth (old field names keep working);
// these counters mirror it so one registry snapshot carries the whole
// system's accounting.
type kvTelemetry struct {
	ops          *telemetry.Counter
	attempts     *telemetry.Counter
	retries      *telemetry.Counter
	hedges       *telemetry.Counter
	breakerSkips *telemetry.Counter
	corruptReads *telemetry.Counter
	failures     *telemetry.Counter
	batches      *telemetry.Counter
	batchKeys    *telemetry.Counter
	batchFalls   *telemetry.Counter
	backoff      *telemetry.Histogram
}

// SetTelemetry mirrors the recovery counters into reg and routes breaker
// open/close/quarantine transitions to reg's event log.
func (k *KV) SetTelemetry(reg *telemetry.Registry) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if reg == nil {
		k.tel = nil
		k.breaker.SetEvents(nil)
		k.values.SetTelemetry(nil, "resilience_value_cache")
		k.health.SetTelemetry(nil)
		return
	}
	k.values.SetTelemetry(reg, "resilience_value_cache")
	k.health.SetTelemetry(reg)
	k.tel = &kvTelemetry{
		ops:          reg.Counter("resilience_ops_total"),
		attempts:     reg.Counter("resilience_attempts_total"),
		retries:      reg.Counter("resilience_retries_total"),
		hedges:       reg.Counter("resilience_hedges_total"),
		breakerSkips: reg.Counter("resilience_breaker_skips_total"),
		corruptReads: reg.Counter("resilience_corrupt_reads_total"),
		failures:     reg.Counter("resilience_failures_total"),
		batches:      reg.Counter("resilience_batches_total"),
		batchKeys:    reg.Counter("resilience_batch_keys_total"),
		batchFalls:   reg.Counter("resilience_batch_fallbacks_total"),
		backoff:      reg.Histogram("resilience_backoff_ms", "ms", telemetry.LatencyBuckets()),
	}
	k.breaker.SetEvents(reg.Events())
}

// lockedSource makes the jitter RNG safe for concurrent operations.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// Wrap builds the resilient decorator around an overlay. Hedged reads and
// healing activate automatically when the overlay implements
// overlay.ReplicaKV / overlay.Healer.
func Wrap(inner overlay.KV, cfg Config) *KV {
	k := &KV{
		inner:   inner,
		cfg:     cfg,
		breaker: NewBreaker(),
		rng:     rand.New(&lockedSource{src: rand.NewSource(cfg.Seed).(rand.Source64)}),
		health:  load.NewTracker(cfg.Health),
	}
	if k.health != nil {
		if rr, ok := inner.(overlay.ReplicaRankable); ok {
			// The overlay's replica selection consults the same health
			// tracker the hedged reads feed, so fan-out and extension
			// ordering also prefer lightly-loaded replicas.
			rr.SetReplicaRanker(k.health.Rank)
		}
	}
	if b, ok := inner.(overlay.BatchKV); ok {
		k.batch = b
	}
	if r, ok := inner.(overlay.ReplicaKV); ok {
		k.replicas = r
	}
	if h, ok := inner.(overlay.Healer); ok {
		k.healer = h
	}
	if s, ok := inner.(overlay.SpanKV); ok {
		k.spanInner = s
	}
	if pf, ok := inner.(overlay.PlacementFilterable); ok {
		// Placement consults live breaker state: a node quarantined for
		// persistent corruption stops receiving new copies, from writes and
		// heal alike, until a half-open probe rehabilitates it. Only
		// corruption-tainted open circuits veto placement — loss-driven ones
		// route reads around a node but never exclude it from holding data.
		pf.SetPlacementFilter(func(node string) bool { return !k.breaker.Quarantined(node) })
	}
	k.values = cachepkg.New[[]byte](cfg.Cache)
	// A quarantine changes which copies are trustworthy and where new ones
	// land: cached verified values and memoized routes must not outlive it.
	rc, _ := inner.(overlay.RouteCached)
	k.breaker.SetQuarantineHook(func(string) {
		k.values.BumpGeneration()
		if rc != nil {
			rc.InvalidateRoutes()
		}
	})
	return k
}

// Name implements overlay.KV.
func (k *KV) Name() string { return k.inner.Name() + "+resilient" }

// Tick advances the decorator's simulated clock one step: the replica-health
// tracker decays idle scores toward baseline (a no-op without
// Config.Health). Experiments drive it from the same loop that ticks simnet
// fault schedules and capacity windows.
func (k *KV) Tick() {
	k.health.Tick()
}

// The decorator participates in the shared tick clock (overlay.Ticker), so
// tick-driven drivers can advance every layer uniformly.
var _ overlay.Ticker = (*KV)(nil)

// HealthSnapshot returns the replica-health tracker's per-node scores,
// sorted by node (nil without Config.Health).
func (k *KV) HealthSnapshot() []load.NodeScore { return k.health.Snapshot() }

// Inner returns the wrapped overlay.
func (k *KV) Inner() overlay.KV { return k.inner }

// Breaker exposes the per-node health tracker.
func (k *KV) Breaker() *Breaker { return k.breaker }

// Metrics returns a snapshot of the recovery counters.
func (k *KV) Metrics() Metrics {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.metrics
}

// ResetMetrics zeroes the recovery counters (between experiment phases).
func (k *KV) ResetMetrics() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.metrics = Metrics{}
}

// record merges one operation's accounting into the metrics and mirrors it
// into the registry when telemetry is wired.
func (k *KV) record(out Outcome, hedges, skips int, failed bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.metrics.Ops++
	k.metrics.Attempts += out.Attempts
	k.metrics.Retries += out.Attempts - 1
	k.metrics.Hedges += hedges
	k.metrics.BreakerSkips += skips
	if failed {
		k.metrics.Failures++
	}
	k.metrics.Backoff += out.Backoff
	if t := k.tel; t != nil {
		t.ops.Inc()
		t.attempts.Add(int64(out.Attempts))
		t.retries.Add(int64(out.Attempts - 1))
		t.hedges.Add(int64(hedges))
		t.breakerSkips.Add(int64(skips))
		if failed {
			t.failures.Inc()
		}
		if out.Backoff > 0 {
			t.backoff.Observe(float64(out.Backoff) / float64(time.Millisecond))
		}
	}
}

// outcomeOf renders an operation error as a span outcome tag, using the
// fault taxonomy for everything that is not a clean miss.
func outcomeOf(err error) string {
	if err == nil {
		return "ok"
	}
	if errors.Is(err, overlay.ErrNotFound) {
		return "miss"
	}
	return Classify(err).String()
}

// Store implements overlay.KV with retries. DHT-style stores are
// idempotent (same key, same value), so AckLost faults — the store landed
// but the ack was dropped — are retried as well; the idempotent-store
// tests prove this is safe.
func (k *KV) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	return k.StoreSpan(nil, origin, key, value)
}

// StoreSpan implements overlay.SpanKV: Store with each attempt (and its
// routing/fan-out, when the overlay traces) hung off a child span of sp,
// plus a "backoff" child charging the total retry delay.
func (k *KV) StoreSpan(sp *telemetry.Span, origin, key string, value []byte) (overlay.OpStats, error) {
	sp.Tag("key", key)
	var total overlay.OpStats
	err := k.storeRetry(sp, origin, key, value, &total)
	return total, err
}

// storeRetry is the retrying store, charging its cost to total: the body of
// StoreSpan, also used by the batch pipeline's per-key fallback.
func (k *KV) storeRetry(sp *telemetry.Span, origin, key string, value []byte, total *overlay.OpStats) error {
	out, err := Do(k.rng, true, func(n int) error {
		asp := k.attemptSpan(sp, n)
		var (
			st  overlay.OpStats
			err error
		)
		if asp != nil && k.spanInner != nil {
			st, err = k.spanInner.StoreSpan(asp, origin, key, value)
		} else {
			st, err = k.inner.Store(origin, key, value)
		}
		total.Add(&st)
		asp.AddLatency(st.Latency)
		asp.End(outcomeOf(err))
		return err
	})
	total.Latency += out.Backoff
	k.backoffSpan(sp, out.Backoff)
	k.record(out, 0, 0, err != nil)
	// Keep the value cache coherent with the write — unconditionally: even
	// a failed store may have landed (ack-lost), so the cached value is
	// suspect either way. In-flight fills for the key are fenced too.
	k.values.Invalidate(key)
	return err
}

// attemptSpan opens the n-th (1-based) attempt's child span under sp.
func (k *KV) attemptSpan(sp *telemetry.Span, n int) *telemetry.Span {
	asp := sp.Child("attempt")
	asp.Tag("n", strconv.Itoa(n))
	return asp
}

// backoffSpan charges the operation's accumulated retry delay to a child
// span, so backoff shows up in the trace as its own phase.
func (k *KV) backoffSpan(sp *telemetry.Span, backoff time.Duration) {
	if sp == nil || backoff <= 0 {
		return
	}
	bsp := sp.Child("backoff")
	bsp.AddLatency(backoff)
	bsp.End("ok")
}

// Lookup implements overlay.KV: retries around either the plain overlay
// lookup or, when the overlay can address replicas, a hedged read that
// resolves the replica set once and races fetches across it, skipping
// nodes whose circuit is open. With a Verify hook configured every value is
// checked before it is surfaced: corrupt reads are rejected and retried
// against other replicas (replica-addressing overlays) or failed outright —
// never returned.
//
// The returned value is read-only and may be shared with the value cache
// and with every other caller that reads the key: copy it before writing
// to it. The same holds for GetBatch's values.
func (k *KV) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	return k.LookupSpan(nil, origin, key)
}

// LookupSpan implements overlay.SpanKV: Lookup with every attempt, replica
// resolution, primary fetch, hedge fetch and backoff attributed to child
// spans of sp (nil sp: identical untraced operation).
// With a value cache configured (Config.Cache) repeat lookups are served
// from memory — a hit charges no messages and no simulated latency, and a
// "cache" child span records how the read was served. Cache hits are not
// counted in Metrics.Ops (no attempt ran); the cache's own counters carry
// that accounting.
func (k *KV) LookupSpan(sp *telemetry.Span, origin, key string) ([]byte, overlay.OpStats, error) {
	sp.Tag("key", key)
	if k.values == nil {
		var total overlay.OpStats
		v, err := k.lookupRetry(sp, origin, key, &total)
		return v, total, err
	}
	var st overlay.OpStats
	// The fill caches the fetched value as is: an overlay's Lookup and
	// LookupFrom hand back the caller's own copy, so nothing else holds it.
	v, outcome, err := k.values.Do(key, func() ([]byte, error) {
		return k.lookupRetry(sp, origin, key, &st)
	})
	csp := sp.Child("cache")
	csp.End(outcome.String())
	if err != nil {
		// st is the failed fill's real cost.
		return nil, st, err
	}
	return v, st, nil
}

// lookupRetry is the cache-free lookup, charging its cost to total: retries
// around either the plain overlay lookup or the hedged replica read. The
// batch pipeline's per-key fallback uses it too.
func (k *KV) lookupRetry(sp *telemetry.Span, origin, key string, total *overlay.OpStats) ([]byte, error) {
	var (
		value  []byte
		hedges int
		skips  int
	)
	op := func(n int) error {
		asp := k.attemptSpan(sp, n)
		if k.replicas == nil {
			var (
				v   []byte
				st  overlay.OpStats
				err error
			)
			if asp != nil && k.spanInner != nil {
				v, st, err = k.spanInner.LookupSpan(asp, origin, key)
			} else {
				v, st, err = k.inner.Lookup(origin, key)
			}
			total.Add(&st)
			asp.AddLatency(st.Latency)
			if err == nil {
				err = k.verifyValue(key, v)
			}
			asp.End(outcomeOf(err))
			if err != nil {
				return err
			}
			value = v
			return nil
		}
		v, h, s, err := k.hedgedLookup(asp, origin, key, total)
		asp.End(outcomeOf(err))
		value = v
		hedges += h
		skips += s
		return err
	}
	// Corruption is only retryable when the retry can land elsewhere: the
	// hedged path re-resolves the replica set each attempt and the breaker
	// failure recorded with the verdict steers it away from the corrupter.
	retryable := func(f Fault) bool { return Retryable(f, true) }
	if k.replicas != nil {
		retryable = func(f Fault) bool { return RetryableElsewhere(f, true) }
	}
	out, err := DoWith(k.rng, retryable, op)
	total.Latency += out.Backoff
	k.backoffSpan(sp, out.Backoff)
	k.record(out, hedges, skips, err != nil)
	if err != nil {
		return nil, err
	}
	return value, nil
}

// verifyValue applies the configured integrity check, wrapping failures in
// ErrCorrupt (FaultCorruption) and counting them.
func (k *KV) verifyValue(key string, value []byte) error {
	if k.cfg.Verify == nil {
		return nil
	}
	if verr := k.cfg.Verify(key, value); verr != nil {
		k.mu.Lock()
		k.metrics.CorruptReads++
		if k.tel != nil {
			k.tel.corruptReads.Inc()
		}
		k.mu.Unlock()
		return &corruptReadError{unwrapper: corruptWrap, key: key, cause: verr}
	}
	return nil
}

// corruptReadError is a copy the integrity check refused: one value,
// formatted only when read, since a read that hedges past the copy drops
// it. It embeds corruptWrap, a wrapper of ErrCorrupt, for its Unwrap, so
// errors.Is finds ErrCorrupt; the check's verdict is text only.
type corruptReadError struct {
	unwrapper
	key   string
	cause error
}

type unwrapper interface{ Unwrap() error }

var corruptWrap = fmt.Errorf("%w", ErrCorrupt).(unwrapper)

// Error reads as fmt.Errorf("%w: key %q: %v", ErrCorrupt, key, cause) would.
func (e *corruptReadError) Error() string {
	return fmt.Sprintf("%v: key %q: %v", ErrCorrupt, e.key, e.cause)
}

// fetchFrom reads key from one named replica and verifies the bytes,
// attributing the read to a child span of sp named spanName. The breaker
// hears exactly one verdict per fetch: reachable-and-honest (a verified
// value or a clean not-found) is a success; a delivery failure or a corrupt
// payload is a failure.
func (k *KV) fetchFrom(sp *telemetry.Span, spanName, origin, key, name string) ([]byte, overlay.OpStats, error) {
	fsp := sp.Child(spanName)
	fsp.Tag("replica", name)
	v, st, err := k.replicas.LookupFrom(origin, key, name)
	fsp.AddLatency(st.Latency)
	if err == nil && k.cfg.Verify != nil {
		// Verification is node-local (zero simulated latency) but gets its
		// own span so corrupt reads are visible as a phase in the trace.
		vsp := fsp.Child("verify")
		err = k.verifyValue(key, v)
		if err != nil {
			vsp.End("corruption")
		} else {
			vsp.End("ok")
		}
	}
	switch {
	case replicaHealthy(err):
		k.breaker.Report(name, true)
		k.health.Observe(name, st.Latency, load.OutcomeOK)
	case Classify(err) == FaultCorruption:
		k.breaker.ReportCorrupt(name)
		k.health.Observe(name, st.Latency, load.OutcomeError)
	case Classify(err) == FaultOverload:
		// Shed ≠ Byzantine and shed ≠ down: the node refused honestly and
		// immediately. The breaker hears a plain (untainted) failure — a
		// persistent shedder is routed around, never quarantined — and the
		// health tracker hears the stronger shed signal.
		k.breaker.Report(name, false)
		k.health.Observe(name, st.Latency, load.OutcomeShed)
	default:
		k.breaker.Report(name, false)
		k.health.Observe(name, st.Latency, load.OutcomeError)
	}
	fsp.End(outcomeOf(err))
	if err != nil {
		return nil, st, err
	}
	return v, st, nil
}

// hedgedLookup performs one attempt: resolve replicas, read the primary,
// and on failure or miss race a hedge wave over the next replicas. The
// wave's reads are concurrent in simulated time: messages and bytes sum,
// latency contributes only the slowest read. A corrupt copy detected here
// stays where it is: the scrubber's passes and the sweeper repair it under
// the version-aware election (scrub package).
func (k *KV) hedgedLookup(sp *telemetry.Span, origin, key string, total *overlay.OpStats) ([]byte, int, int, error) {
	rsp := sp.Child("resolve")
	names, st, err := k.replicas.ReplicasFor(origin, key)
	total.Add(&st)
	rsp.AddLatency(st.Latency)
	rsp.End(outcomeOf(err))
	if err != nil {
		return nil, 0, 0, err
	}
	// names is read-only (overlay.ReplicaKV): it is read as given until the
	// breaker skips a name, and only then filtered into room on the stack:
	// a plan of up to eight names (the DHT's 2× a replication factor of up
	// to four) costs no allocation, and a longer one spills by append.
	var room [8]string
	allowed := names
	skips := 0
	for i, name := range names {
		switch {
		case !k.breaker.Allow(name):
			if skips == 0 {
				allowed = append(room[:0], names[:i]...)
			}
			skips++
		case skips > 0:
			allowed = append(allowed, name)
		}
	}
	if len(allowed) == 0 {
		// Everything is presumed down; trying something beats failing
		// without a message.
		allowed = names
	}
	// Load-aware selection: the healthiest replica serves as primary and
	// the hedge wave follows in health order, so a flash-crowded node is
	// tried last while its siblings have spare capacity. A nil tracker
	// (Config.Health zero) keeps canonical order.
	allowed = k.health.Rank(allowed)

	// Primary read (verified).
	v, st, err := k.fetchFrom(sp, "fetch", origin, key, allowed[0])
	total.Add(&st)
	if err == nil {
		return v, 0, skips, nil
	}
	var (
		anyNotFound  = errors.Is(err, overlay.ErrNotFound)
		anyRetryable bool
		lastErr      = err
	)
	if RetryableElsewhere(Classify(err), true) {
		anyRetryable = true
	}

	// Hedge wave: race the next replicas in parallel (simulated), first
	// verified value in replica order wins.
	wave := allowed[1:]
	if len(wave) > hedgeWidth {
		wave = wave[:hedgeWidth]
	}
	var (
		found   []byte
		ok      bool
		waveLat time.Duration
	)
	for _, name := range wave {
		v, st, err := k.fetchFrom(sp, "hedge", origin, key, name)
		total.Hops += st.Hops
		total.Messages += st.Messages
		total.Bytes += st.Bytes
		if st.Latency > waveLat {
			waveLat = st.Latency
		}
		switch {
		case err == nil:
			if !ok {
				found, ok = v, true
			}
		case errors.Is(err, overlay.ErrNotFound):
			anyNotFound = true
		default:
			if RetryableElsewhere(Classify(err), true) {
				anyRetryable = true
			}
			lastErr = err
		}
	}
	total.Latency += waveLat
	if ok {
		return found, len(wave), skips, nil
	}
	// No replica produced a verified value. A transient failure anywhere
	// means a copy may still be reachable on retry, and a corrupt copy
	// means an honest replica may answer next attempt (the corrupter's
	// breaker failure steers the retry away from it); only a unanimous
	// miss is a definitive not-found.
	if anyRetryable {
		return nil, len(wave), skips, &hedgedReadError{cause: lastErr}
	}
	if anyNotFound {
		return nil, len(wave), skips, overlay.ErrNotFound
	}
	return nil, len(wave), skips, errHedgedUnavailable
}

// hedgedReadError is an attempt whose every read failed: one value,
// formatted only when read, since DoWith retries and drops most of them.
type hedgedReadError struct{ cause error }

var errHedgedUnavailable error = &hedgedReadError{cause: overlay.ErrUnavailable}

// Error reads as fmt.Errorf("resilience: hedged read failed: %w", cause)
// would.
func (e *hedgedReadError) Error() string { return "resilience: hedged read failed: " + e.cause.Error() }

func (e *hedgedReadError) Unwrap() error { return e.cause }

// replicaHealthy interprets a per-replica fetch outcome for the breaker: a
// replica that answered honestly — even with "not found" — is healthy; a
// delivery failure or a corrupt payload counts against it.
func replicaHealthy(err error) bool {
	return err == nil || errors.Is(err, overlay.ErrNotFound)
}

// Heal runs one anti-entropy repair pass on the wrapped overlay.
func (k *KV) Heal() (overlay.HealReport, error) {
	return k.HealSpan(nil)
}

// HealSpan runs one anti-entropy repair pass with tracing attached to sp
// (nil: untraced), delegating to the overlay's span-aware pass when it has
// one.
func (k *KV) HealSpan(sp *telemetry.Span) (overlay.HealReport, error) {
	if k.healer == nil {
		return overlay.HealReport{}, ErrNoHealer
	}
	if sh, ok := k.healer.(overlay.SpanHealer); ok {
		return sh.HealSpan(sp)
	}
	return k.healer.Heal()
}

// InvalidateValue drops the cached verified value for key (no-op without a
// value cache). The scrubber calls this, via scrub.SetInvalidator, for
// every key it found divergent or condemned — a cached value must never
// outlive a condemnation of its holder group.
func (k *KV) InvalidateValue(key string) {
	k.values.Invalidate(key)
}

// ValueCacheStats returns the verified-value cache's counters (zero Stats
// when the cache is disabled).
func (k *KV) ValueCacheStats() cachepkg.Stats {
	return k.values.Stats()
}
