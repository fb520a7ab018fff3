package bench

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"godosn/internal/cache"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/load"
	"godosn/internal/stack"
	"godosn/internal/telemetry"
)

// E22's flash crowd: the offered load on the hot node as a multiple of its
// capacity (its queue holds 1x capacity, so below 3x nothing would shed),
// that capacity in full-speed requests per tick, and so the requests offered
// to the hot key every tick.
const (
	e22HotFactor = 5.0
	e22Capacity  = 2
	e22PerTick   = int(e22HotFactor * e22Capacity)
)

// e22Mode selects an arm's stack.
type e22Mode int

const (
	e22Baseline  e22Mode = iota // no capacity limit: the uncontended floor
	e22Bare                     // hot node capped; stock stack (retries + hedges, canonical order)
	e22Protected                // hot node capped; + health-ranked selection
)

func (m e22Mode) String() string {
	switch m {
	case e22Baseline:
		return "baseline (uncontended)"
	case e22Bare:
		return "bare (canonical order)"
	default:
		return "load-aware (health-ranked)"
	}
}

// e22Arm is one arm's complete outcome. Every field is part of the
// determinism contract: two runs with the same knobs must DeepEqual.
type e22Arm struct {
	Latencies []time.Duration // per-lookup simulated latency, issue order
	OK        int
	Failed    int
	Overload  simnet.OverloadStats
	Health    []load.NodeScore
	Snap      telemetry.Snapshot
}

// e22Run is one full three-arm execution at a fixed worker count.
type e22Run struct {
	Baseline, Bare, Protected e22Arm
}

// E22FlashCrowd overloads one replica of a hot key — a flash crowd on a
// celebrity profile at e22HotFactor times the node's capacity — and
// measures three arms: the uncontended baseline, the stock stack (retries +
// hedges in canonical replica order, so every read lines up behind the hot
// node's queue), and the load-aware stack (EWMA health-ranked replica
// selection), which reroutes to the hot node's siblings and holds tail
// latency at the baseline.
// Invariants are enforced in-run, partly from the telemetry registry: the
// protected arm must serve >= 99% with p99 <= 3x baseline while the bare
// arm degrades beyond that bound; the hot node must demonstrably shed
// (bare) and queue (protected) in the overload counters; health-score
// gauges must be present; and the whole three-arm run must be
// DeepEqual-reproducible back to back at FanoutWorkers 1 and 8.
func E22FlashCrowd(quick bool) (*Table, error) {
	ticks := 120
	if quick {
		ticks = 110
	}

	// Determinism gate first: the full three-arm run, twice, at both worker
	// counts. Single-key operations contact replicas serially at any
	// FanoutWorkers, so per-node overload accounting must not move.
	var runs [2]e22Run
	for i, workers := range []int{1, 8} {
		a, err := runE22(workers, ticks)
		if err != nil {
			return nil, err
		}
		b, err := runE22(workers, ticks)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(a, b) {
			return nil, fmt.Errorf("bench: e22 invariant violated: back-to-back runs at workers=%d are not identical", workers)
		}
		runs[i] = a
	}
	r := runs[0]

	basePer := float64(ticks * e22PerTick)
	okRate := func(a e22Arm) float64 { return float64(a.OK) / basePer }
	baseP99 := pctlMS(r.Baseline.Latencies, 0.99)
	bareP99 := pctlMS(r.Bare.Latencies, 0.99)
	protP99 := pctlMS(r.Protected.Latencies, 0.99)

	// Arm-shape invariants.
	if r.Baseline.Overload.Sheds != 0 || r.Baseline.Failed != 0 {
		return nil, fmt.Errorf("bench: e22 baseline arm not clean (%d sheds, %d failures)", r.Baseline.Overload.Sheds, r.Baseline.Failed)
	}
	if okRate(r.Protected) < 0.99 {
		return nil, fmt.Errorf("bench: e22 invariant violated: load-aware arm served %.2f%% < 99%%", okRate(r.Protected)*100)
	}
	if protP99 > 3*baseP99 {
		return nil, fmt.Errorf("bench: e22 invariant violated: load-aware p99 %.1fms > 3x baseline %.1fms", protP99, baseP99)
	}
	if bareP99 <= 3*baseP99 {
		return nil, fmt.Errorf("bench: e22 invariant violated: bare arm did not degrade (p99 %.1fms <= 3x baseline %.1fms)", bareP99, baseP99)
	}
	// Overload evidence, read back from the telemetry registry snapshots.
	if v, ok := counterOf(r.Bare.Snap, "simnet_overload_sheds_total"); !ok || v == 0 {
		return nil, fmt.Errorf("bench: e22 invariant violated: bare arm recorded no sheds in telemetry (%d)", v)
	}
	if v, ok := counterOf(r.Protected.Snap, "simnet_overload_queued_total"); !ok || v == 0 {
		return nil, fmt.Errorf("bench: e22 invariant violated: protected arm recorded no hot-node queueing in telemetry (%d)", v)
	}
	healthGauges := 0
	for _, g := range r.Protected.Snap.Gauges {
		if len(g.Name) > 18 && g.Name[:18] == "load_health_score_" {
			healthGauges++
		}
	}
	if healthGauges == 0 {
		return nil, fmt.Errorf("bench: e22 invariant violated: no per-node health-score gauges in telemetry")
	}
	if len(r.Protected.Health) == 0 {
		return nil, fmt.Errorf("bench: e22 invariant violated: empty health snapshot")
	}

	t := &Table{
		ID:     "E22",
		Title:  fmt.Sprintf("overload: flash crowd at %.0fx capacity on one replica (DHT k=3, capacity %d/tick)", e22HotFactor, e22Capacity),
		Header: []string{"arm", "ok%", "p50", "p99", "p99/base", "queued", "shed"},
	}
	for _, arm := range []struct {
		name string
		a    e22Arm
	}{
		{e22Baseline.String(), r.Baseline},
		{e22Bare.String(), r.Bare},
		{e22Protected.String(), r.Protected},
	} {
		t.AddRow(
			arm.name,
			fmt.Sprintf("%.1f", okRate(arm.a)*100),
			fmt.Sprintf("%.0fms", pctlMS(arm.a.Latencies, 0.50)),
			fmt.Sprintf("%.0fms", pctlMS(arm.a.Latencies, 0.99)),
			fmt.Sprintf("%.1fx", pctlMS(arm.a.Latencies, 0.99)/baseP99),
			fmt.Sprintf("%d", arm.a.Overload.Queued),
			fmt.Sprintf("%d", arm.a.Overload.Sheds),
		)
	}
	t.AddNote("every tick offers %.0fx the hot node's capacity against the hot key; the bare arm lines up behind the hot node's queue (and sheds past it), the load-aware arm demotes the hot node after its first slow/shed observations and reads its siblings", e22HotFactor)
	t.AddNote("determinism: the full three-arm run is DeepEqual-identical back to back at FanoutWorkers=1 and =8 (per-lookup latencies, overload counters, health snapshots, telemetry registries)")
	t.AddNote("hot-node load factor %.0fx and capacity %d requests/tick are fixed constants", e22HotFactor, e22Capacity)
	t.AddMetric("e22_hot_factor", "x", e22HotFactor)
	t.AddMetric("e22_capacity", "req/tick", float64(e22Capacity))
	t.AddMetric("e22_baseline_p99", "ms", baseP99)
	t.AddMetric("e22_bare_p99", "ms", bareP99)
	t.AddMetric("e22_loadaware_p99", "ms", protP99)
	t.AddMetric("e22_bare_p99_ratio", "x", bareP99/baseP99)
	t.AddMetric("e22_loadaware_p99_ratio", "x", protP99/baseP99)
	t.AddMetric("e22_loadaware_ok", "ratio", okRate(r.Protected))
	t.AddMetric("e22_bare_sheds", "reqs", float64(r.Bare.Overload.Sheds))
	t.AddMetric("e22_loadaware_queued", "reqs", float64(r.Protected.Overload.Queued))
	t.AddMetric("e22_deterministic", "bool", 1)
	snap := r.Protected.Snap
	t.Telemetry = &snap
	return t, nil
}

// runE22 executes the three arms at one worker count.
func runE22(workers, ticks int) (e22Run, error) {
	var run e22Run
	for _, m := range []struct {
		mode e22Mode
		dst  *e22Arm
	}{{e22Baseline, &run.Baseline}, {e22Bare, &run.Bare}, {e22Protected, &run.Protected}} {
		arm, err := runE22Arm(m.mode, workers, ticks)
		if err != nil {
			return run, err
		}
		*m.dst = arm
	}
	return run, nil
}

// runE22Arm drives the flash crowd over one arm. Lookups run serially (the
// crowd's arrival order at the hot node is the experiment's identity);
// workers sets dht.Config.FanoutWorkers, which must not perturb any
// per-node accounting.
func runE22Arm(mode e22Mode, workers, ticks int) (e22Arm, error) {
	const seed = int64(2217)
	const peers = 20
	arm := e22Arm{}

	// The route cache keeps resolution off the hot node after the first
	// lookup: the flash crowd contends on data fetches, not on routing.
	dcfg := dht.Config{
		ReplicationFactor: 3,
		FanoutWorkers:     workers,
		RouteCache:        cache.Config{Capacity: 64, Shards: 1, Seed: seed},
	}
	rcfg := resilience.DefaultConfig(seed)
	// No value cache in any arm: repeat reads of the hot key must hit the
	// network, or the flash crowd would be absorbed by memory (that
	// mitigation is E21's subject, not this experiment's).
	if mode == e22Protected {
		rcfg.Health = load.DefaultTrackerConfig()
	}
	reg := telemetry.NewRegistry()
	st, err := stack.Build(stack.Spec{
		Names: benchNames(peers),
		// Lossless and jitter-free: the capacity model is the only source of
		// delay variation, and the simnet draws no randomness per message.
		Net:        simnet.Config{Seed: seed, BaseLatency: 10 * time.Millisecond},
		DHT:        dcfg,
		Resilience: &rcfg,
		Registry:   reg,
	})
	if err != nil {
		return arm, err
	}
	net, d, kv, names := st.Net, st.DHT, st.KV, st.Names

	const hotKey = "celebrity-profile"
	seedClient := st.Client
	if _, err := kv.Store(seedClient, hotKey, []byte("celebrity-post")); err != nil {
		return arm, fmt.Errorf("bench: e22 store: %w", err)
	}
	for i := 0; i < 8; i++ {
		kv.Tick()
		if _, err := kv.Store(seedClient, fmt.Sprintf("bg-%d", i), []byte("filler")); err != nil {
			return arm, fmt.Errorf("bench: e22 store: %w", err)
		}
	}
	replicas, _, err := d.ReplicasFor(seedClient, hotKey)
	if err != nil {
		return arm, err
	}
	hot := replicas[0] // canonical primary: where every unranked read goes first
	isReplica := make(map[string]bool, len(replicas))
	for _, name := range replicas {
		isReplica[name] = true
	}
	client := ""
	for _, name := range names {
		if !isReplica[string(name)] {
			client = string(name)
			break
		}
	}
	if mode != e22Baseline {
		if err := net.SetCapacity(simnet.NodeID(hot), simnet.CapacityConfig{
			PerTick:     e22Capacity,
			QueueDepth:  e22Capacity, // queue holds 1x capacity; the rest of the crowd sheds
			ServiceTime: 40 * time.Millisecond,
		}); err != nil {
			return arm, err
		}
	}
	net.ResetTotals()

	for tick := 0; tick < ticks; tick++ {
		net.TickCapacity()
		kv.Tick()
		for j := 0; j < e22PerTick; j++ {
			_, st, err := kv.Lookup(client, hotKey)
			arm.Latencies = append(arm.Latencies, st.Latency)
			if err != nil {
				arm.Failed++
			} else {
				arm.OK++
			}
		}
	}
	arm.Overload = net.Overload()
	arm.Health = kv.HealthSnapshot()
	arm.Snap = reg.Snapshot()
	return arm, nil
}

// pctlMS returns the q-quantile of the latencies in milliseconds (nearest-
// rank on a sorted copy).
func pctlMS(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// counterOf looks a counter up in a registry snapshot.
func counterOf(snap telemetry.Snapshot, name string) (int64, bool) {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}
