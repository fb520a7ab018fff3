package main

import (
	"math"
	"slices"
)

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the stack sees, on every workload.
// Each is the median over the run's repetitions. Bounds are relative: how
// far the median may worsen before it is a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_ref_s", "1/s", "higher", 0.25},
	{"cpu_ref_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.06},
	{"alloc_bytes_per_op", "B", "lower", 0.07},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"sim_msgs_per_op", "count", "lower", 0.06},
	{"sim_bytes_per_op", "B", "lower", 0.10},
}

// perLayer are report-only: they explain a move in an end-to-end metric.
var perLayer = []metricDef{
	{Name: "privacy.seal_us_per_op", Unit: "us", Better: "lower"},
	{Name: "privacy.open_us_per_op", Unit: "us", Better: "lower"},
	{Name: "privacy.seal_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "privacy.keycache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "privacy.revoke_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "privacy.revoke_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "privacy.reenc_envelopes_per_revoke", Unit: "count", Better: "lower"},
	{Name: "privacy.pubkey_ops_per_revoke", Unit: "count", Better: "lower"},
	{Name: "privacy.denied_opens", Unit: "count", Better: "higher"},
	{Name: "privacy.self_share", Unit: "ratio", Better: "lower"},
	{Name: "scrub.record_seal_us_per_op", Unit: "us", Better: "lower"},
	{Name: "scrub.record_open_us_per_op", Unit: "us", Better: "lower"},
	{Name: "scrub.pass_keys_per_s", Unit: "1/s", Better: "higher"},
	{Name: "scrub.pass_msgs_per_key", Unit: "count", Better: "lower"},
	{Name: "scrub.repaired", Unit: "count", Better: "higher"},
	{Name: "scrub.unrepaired", Unit: "count", Better: "lower"},
	{Name: "scrub.stall_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scrub.self_share", Unit: "ratio", Better: "lower"},
	{Name: "resilience.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "resilience.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "resilience.hedges_per_op", Unit: "count", Better: "lower"},
	{Name: "resilience.breaker_skips", Unit: "count", Better: "lower"},
	{Name: "resilience.corrupt_reads", Unit: "count", Better: "lower"},
	{Name: "resilience.batch_fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "resilience.backoff_sim_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "resilience.call_p50_us", Unit: "us", Better: "lower"},
	{Name: "resilience.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "resilience.sim_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.fail_share", Unit: "ratio", Better: "lower"},
	{Name: "resilience.self_share", Unit: "ratio", Better: "lower"},
	{Name: "cache.value_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.value_evictions", Unit: "count", Better: "lower"},
	{Name: "cache.route_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.route_evictions", Unit: "count", Better: "lower"},
	{Name: "dht.call_us_per_op", Unit: "us", Better: "lower"},
	{Name: "dht.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "dht.hops_per_op", Unit: "count", Better: "lower"},
	{Name: "dht.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "dht.heal_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dht.heal_msgs", Unit: "count", Better: "lower"},
	{Name: "dht.self_share", Unit: "ratio", Better: "lower"},
	{Name: "simnet.rpc_ns_c1", Unit: "ns", Better: "lower"},
	{Name: "simnet.rpc_ns_c2", Unit: "ns", Better: "lower"},
	{Name: "simnet.contention_ratio", Unit: "ratio", Better: "lower"},
	{Name: "simnet.est_share", Unit: "ratio", Better: "lower"},
	{Name: "simnet.msgs_total", Unit: "count", Better: "lower"},
	{Name: "simnet.bytes_total", Unit: "B", Better: "lower"},
	{Name: "simnet.corrupted_replies", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.host_speed", Unit: "ratio", Better: "higher"},
	{Name: "harness.raw_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "harness.raw_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "harness.raw_setup_s", Unit: "s", Better: "lower"},
	{Name: "harness.gen_us_per_op", Unit: "us", Better: "lower"},
	{Name: "harness.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.spans", Unit: "count", Better: "lower"},
	{Name: "harness.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "harness.self_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.call_samples", Unit: "count", Better: "higher"},
	{Name: "harness.call_tail_percentile", Unit: "%", Better: "higher"},
}

// percentile is the nearest-rank p-quantile of a sorted slice.
func percentile[T int32 | int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile is the reporting rule for timings: next to the median,
// report the highest percentile that still has at least ten samples beyond
// it, never higher than want.
func tailPercentile(n int, want float64) float64 {
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.9} {
		if p <= want && n-int(math.Ceil(p*float64(n))) >= 10 {
			return p
		}
	}
	return 0.5
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eOf computes one repetition's end-to-end metrics. Times are in seconds
// of the reference host (see calibrate).
func e2eOf(r *repResult) map[string]float64 {
	ops := float64(r.out.ops())
	speed := r.hostSpeed()
	return map[string]float64{
		"setup_s":            float64(r.setupNs) / 1e9 * speed,
		"ops_per_ref_s":      ratio(float64(r.out.ops()-r.out.failed()), float64(r.wallNs)/1e9*speed),
		"cpu_ref_us_per_op":  ratio(float64(r.cpuNs)/1e3*speed, ops),
		"allocs_per_op":      ratio(float64(r.mallocs), ops),
		"alloc_bytes_per_op": ratio(float64(r.allocBytes), ops),
		"live_heap_mb":       float64(r.liveHeap) / (1 << 20),
		"sim_msgs_per_op":    ratio(float64(r.msgs), ops),
		"sim_bytes_per_op":   ratio(float64(r.bytes), ops),
	}
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// layersOf computes one repetition's per-layer metrics. Span-derived ones
// are zero unless the repetition was traced.
func layersOf(r *repResult) map[string]float64 {
	ops := float64(r.out.ops())
	sp := r.spans
	perSpan := func(name int) float64 { return ratio(float64(sp.total[name])/1e3, float64(sp.count[name])) }
	layer := sp.layerSelf()
	var allSelf int64
	for _, ns := range layer {
		allSelf += ns
	}
	share := func(name string) float64 { return ratio(float64(layer[name]), float64(allSelf)) }
	dhtCalls, dhtTotal := sp.prefixed("dht.")
	tail := tailPercentile(len(r.callNs), 0.99)

	m := map[string]float64{
		"privacy.seal_us_per_op":     perSpan(spPrivacySeal),
		"privacy.open_us_per_op":     perSpan(spPrivacyOpen),
		"privacy.seal_allocs_per_op": r.sealAllocs,
		"privacy.self_share":         share("privacy"),

		"scrub.record_seal_us_per_op": perSpan(spRecordSeal),
		"scrub.record_open_us_per_op": perSpan(spRecordOpen),
		"scrub.self_share":            share("scrub"),

		"resilience.self_us_per_op":        ratio(float64(sp.self[spResilienceCall])/1e3, ops),
		"resilience.retries_per_op":        ratio(float64(r.res.Retries), ops),
		"resilience.hedges_per_op":         ratio(float64(r.res.Hedges), ops),
		"resilience.breaker_skips":         float64(r.res.BreakerSkips),
		"resilience.corrupt_reads":         float64(r.res.CorruptReads),
		"resilience.batch_fallback_ratio":  ratio(float64(r.res.BatchFallbacks), float64(r.res.BatchKeys)),
		"resilience.backoff_sim_ms_per_op": ratio(float64(r.res.Backoff.Milliseconds()), ops),
		"resilience.call_p50_us":           float64(percentile(r.callNs, 0.5)) / 1e3,
		"resilience.call_p99_us":           float64(percentile(r.callNs, tail)) / 1e3,
		"resilience.sim_p99_ms":            float64(percentile(r.simUs, tailPercentile(len(r.simUs), 0.99))) / 1e3,
		"resilience.fail_share":            ratio(float64(r.out.failed()), ops),
		"resilience.self_share":            share("resilience"),

		"cache.value_hit_ratio": r.valueCache.HitRate(),
		"cache.value_evictions": float64(r.valueCache.Evictions),
		"cache.route_hit_ratio": r.routeCache.HitRate(),
		"cache.route_evictions": float64(r.routeCache.Evictions),

		"dht.call_us_per_op": ratio(float64(dhtTotal)/1e3, ops),
		"dht.calls_per_op":   ratio(float64(dhtCalls), ops),
		"dht.hops_per_op":    ratio(float64(r.net.Hops), ops),
		"dht.msgs_per_op":    ratio(float64(r.net.Messages), ops),
		"dht.self_share":     share("dht"),

		"simnet.msgs_total":        float64(r.net.Messages),
		"simnet.bytes_total":       float64(r.net.Bytes),
		"simnet.corrupted_replies": float64(r.corrupted),

		"runtime.gc_pause_share": ratio(float64(r.gcPauseNs), float64(r.wallNs)),
		"runtime.gc_cycles":      float64(r.gcCycles),
		"runtime.heap_peak_mb":   float64(r.heapPeak) / (1 << 20),

		"harness.host_speed":        r.hostSpeed(),
		"harness.raw_ops_per_s":     ratio(float64(r.out.ops()-r.out.failed()), float64(r.wallNs)/1e9),
		"harness.raw_cpu_us_per_op": ratio(float64(r.cpuNs)/1e3, ops),
		"harness.raw_setup_s":       float64(r.setupNs) / 1e9,
		"harness.gen_us_per_op":     ratio(float64(r.genNs)/1e3, float64(r.actions)),
		"harness.spans":             float64(r.nspans),
		// Every client is busy for the whole on-clock time, so the spans of
		// all clients together should cover wall time once per client.
		"harness.span_coverage":        ratio(float64(allSelf), float64(r.wallNs)*float64(r.clientCount)),
		"harness.self_share":           share("harness"),
		"harness.call_samples":         float64(len(r.callNs)),
		"harness.call_tail_percentile": tail * 100,
	}
	if f := r.faults; f != nil {
		m["scrub.pass_keys_per_s"] = ratio(float64(f.passKeys), float64(f.passNs)/1e9)
		m["scrub.pass_msgs_per_key"] = ratio(float64(f.passMsgs), float64(f.passKeys))
		m["scrub.repaired"] = float64(f.repaired)
		m["scrub.unrepaired"] = float64(f.unrepaired)
		m["scrub.stall_ms_p50"] = float64(percentile(sortedCopy(f.stallNs), 0.5)) / 1e6
		m["dht.heal_ms_p50"] = float64(percentile(sortedCopy(f.healNs), 0.5)) / 1e6
		m["dht.heal_msgs"] = float64(f.healMsgs)
	}
	if p := r.priv; p != nil {
		revokes := float64(len(p.revokeNs))
		var sum int64
		for _, ns := range p.revokeNs {
			sum += ns
		}
		m["privacy.keycache_hit_ratio"] = r.keyCache.HitRate()
		m["privacy.revoke_p50_ms"] = float64(percentile(sortedCopy(p.revokeNs), 0.5)) / 1e6
		m["privacy.revoke_mean_ms"] = ratio(float64(sum)/1e6, revokes)
		m["privacy.reenc_envelopes_per_revoke"] = ratio(float64(p.reencrypted), revokes)
		m["privacy.pubkey_ops_per_revoke"] = ratio(float64(p.pubkeyOps), revokes)
		m["privacy.denied_opens"] = float64(p.denied)
	}
	return m
}
