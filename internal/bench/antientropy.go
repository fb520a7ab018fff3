package bench

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience/scrub"
	"godosn/internal/stack"
)

// E26BatchedAntiEntropy measures the maintenance plane's batched RPC paths
// against the per-key baseline: the same DHT, the same 10% seeded stored
// bit rot, and the same crash-restart state loss, scrubbed and healed once
// per arm. The per-key arm forces one digest exchange per group, one fetch
// per key per replica, and one store RPC per repair push
// (scrub.Config.PerKey + dht.Config.PerKeyHeal); the batched arm rides the
// overlay.BatchDigestKV / BatchRepairKV contracts — multi-group digests,
// whole-group column fetches, and repair pushes coalesced per destination.
//
// Three invariants are enforced, not just reported: both arms must find and
// repair exactly the same corruption (batching must not change semantics),
// the batched arm must spend at least 3x fewer messages per key across
// scrub+heal, and a fresh batched scrub at Workers=8 must produce a report
// DeepEqual to the Workers=1 arm's — byte-identical down to the digest and
// message accounting.
func E26BatchedAntiEntropy(quick bool) (*Table, error) {
	peers, keys := 40, 100_000
	if quick {
		keys = 8_000
	}

	perKey, err := runE26Arm(true, 1, peers, keys)
	if err != nil {
		return nil, err
	}
	batched, err := runE26Arm(false, 1, peers, keys)
	if err != nil {
		return nil, err
	}
	batched8, err := runE26Arm(false, 8, peers, keys)
	if err != nil {
		return nil, err
	}

	// Batching is a transport optimization: the two arms must agree on
	// every semantic outcome — what was corrupt, what was repaired.
	if perKey.report.CorruptCopies != batched.report.CorruptCopies ||
		perKey.report.RepairedWrites != batched.report.RepairedWrites ||
		perKey.report.DivergentKeys != batched.report.DivergentKeys ||
		perKey.healRepaired != batched.healRepaired {
		return nil, fmt.Errorf("bench: e26 arms disagree: per-key corrupt/repaired/divergent/heal %d/%d/%d/%d, batched %d/%d/%d/%d",
			perKey.report.CorruptCopies, perKey.report.RepairedWrites, perKey.report.DivergentKeys, perKey.healRepaired,
			batched.report.CorruptCopies, batched.report.RepairedWrites, batched.report.DivergentKeys, batched.healRepaired)
	}
	if batched.report.CorruptCopies == 0 || batched.healRepaired == 0 {
		return nil, fmt.Errorf("bench: e26 injection too weak: %d corrupt copies found, %d heal repairs",
			batched.report.CorruptCopies, batched.healRepaired)
	}
	// The tentpole claim: batched anti-entropy costs >= 3x fewer messages
	// per key than the per-key baseline.
	if batched.msgsPerKey*3 > perKey.msgsPerKey {
		return nil, fmt.Errorf("bench: e26 invariant violated: batched %.3f msg/key vs per-key %.3f — less than 3x reduction",
			batched.msgsPerKey, perKey.msgsPerKey)
	}
	// Worker-count independence: a fresh 8-worker scrub must reproduce the
	// 1-worker report byte for byte.
	if !reflect.DeepEqual(batched.report, batched8.report) {
		return nil, fmt.Errorf("bench: e26 invariant violated: batched scrub reports diverge between workers 1 and 8")
	}

	t := &Table{
		ID:     "E26",
		Title:  fmt.Sprintf("batched anti-entropy: scrub+heal cost, per-key vs batched RPCs (DHT, k=3, %d keys, 10%% rot)", keys),
		Header: []string{"arm", "scrub msgs", "heal msgs", "msg/key", "sim-latency", "batch RPCs", "corrupt found", "repaired", "heal repaired"},
	}
	for _, row := range []struct {
		name string
		r    e26Result
	}{{"per-key", perKey}, {"batched", batched}} {
		t.AddRow(
			row.name,
			fmt.Sprintf("%d", row.r.scrubMsgs),
			fmt.Sprintf("%d", row.r.healMsgs),
			fmt.Sprintf("%.3f", row.r.msgsPerKey),
			row.r.latency.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%d", row.r.report.BatchRPCs),
			fmt.Sprintf("%d", row.r.report.CorruptCopies),
			fmt.Sprintf("%d", row.r.report.RepairedWrites),
			fmt.Sprintf("%d", row.r.healRepaired),
		)
	}
	reduction := perKey.msgsPerKey / batched.msgsPerKey
	t.AddNote("both arms share every seed: identical placement, identical rot (1 copy on 10%% of keys), identical crash-restart state loss on two nodes — the only variable is RPC granularity")
	t.AddNote("per-key: digest per (group, replica), one fetch per (key, replica) on drill-down, one store RPC per repair push; batched: multi-group digests per replica, whole-group column fetches, repairs coalesced per destination")
	t.AddNote("message reduction: %.1fx fewer messages per key (invariant: >= 3x); a fresh Workers=8 batched scrub reproduces the Workers=1 report byte-identically", reduction)
	t.AddNote("paper claim (IV-B): anti-entropy integrity maintenance is what keeps replicated profile data trustworthy — batching makes running it continuously affordable")
	t.AddMetric("e26_perkey_msgs_per_key", "msg", perKey.msgsPerKey)
	t.AddMetric("e26_batched_msgs_per_key", "msg", batched.msgsPerKey)
	t.AddMetric("e26_reduction", "x", reduction)
	t.AddMetric("e26_perkey_latency_ms", "ms", float64(perKey.latency)/float64(time.Millisecond))
	t.AddMetric("e26_batched_latency_ms", "ms", float64(batched.latency)/float64(time.Millisecond))
	t.AddMetric("e26_batch_rpcs", "rpc", float64(batched.report.BatchRPCs))
	t.AddMetric("e26_corrupt_found", "copies", float64(batched.report.CorruptCopies))
	t.AddMetric("e26_repaired", "copies", float64(batched.report.RepairedWrites))
	return t, nil
}

// e26Result is one arm's outcome.
type e26Result struct {
	scrubMsgs    int
	healMsgs     int
	msgsPerKey   float64 // (scrub + heal messages) / keys
	latency      time.Duration
	healRepaired int
	report       scrub.Report
}

// runE26Arm populates, injects, heals, and scrubs one arm. Population and
// injection are network-identical across arms, so the maintenance passes
// face exactly the same damage.
func runE26Arm(perKeyArm bool, workers, peers, keys int) (e26Result, error) {
	const seed = int64(2601)
	res := e26Result{}
	scfg := scrub.DefaultConfig("")
	scfg.PerKey = perKeyArm
	scfg.Workers = workers
	st, err := stack.Build(stack.Spec{
		Names: benchNames(peers),
		Net:   simnet.DefaultConfig(seed),
		DHT:   dht.Config{ReplicationFactor: 3, PerKeyHeal: perKeyArm},
		Scrub: &scfg,
	})
	if err != nil {
		return res, err
	}
	net, d, names, client := st.Net, st.DHT, st.Names, st.Client

	allKeys := make([]string, keys)
	for i := range allKeys {
		key := fmt.Sprintf("post-%06d", i)
		allKeys[i] = key
		if _, err := d.Store(client, key, scrub.Seal(key, []byte(fmt.Sprintf("body-%06d", i)))); err != nil {
			return res, fmt.Errorf("bench: e26 store %s: %w", key, err)
		}
	}

	// 10% stored bit rot: every 10th key loses one copy to a silent flip
	// on its first planned replica. Deterministic — no RNG, no network.
	for i := 0; i < keys; i += 10 {
		key := allKeys[i]
		for _, name := range d.PlanReplicas(key) {
			if d.CorruptStored(name, key, func(b []byte) []byte {
				b[len(b)/2] ^= 0x40
				return b
			}) {
				break
			}
		}
	}

	// Crash-restart two nodes: volatile state loss leaves every key they
	// held under-replicated — the healer's workload.
	for _, idx := range []int{11, 23} {
		if err := net.Crash(names[idx]); err != nil {
			return res, err
		}
		if err := net.SetOnline(names[idx], true); err != nil {
			return res, err
		}
	}

	healRep, err := d.Heal()
	if err != nil {
		return res, fmt.Errorf("bench: e26 heal: %w", err)
	}
	res.healMsgs = healRep.Stats.Messages
	res.healRepaired = healRep.Repaired
	res.latency += healRep.Stats.Latency

	// Plan replica groups from local state (dht.PlanReplicas), exactly as
	// the sweep scheduler does: group formation is free of network cost in
	// both arms, so the measurement isolates the maintenance RPCs
	// themselves — digests, drill-down fetches, rechecks, repair pushes.
	var groups []scrub.Group
	index := make(map[string]int)
	for _, key := range allKeys {
		plan := d.PlanReplicas(key)
		sig := strings.Join(plan, "\x00")
		gi, ok := index[sig]
		if !ok {
			gi = len(groups)
			index[sig] = gi
			groups = append(groups, scrub.Group{Replicas: plan})
		}
		groups[gi].Keys = append(groups[gi].Keys, key)
	}

	rep, err := st.Scrub.ScrubResolved(groups)
	if err != nil {
		return res, fmt.Errorf("bench: e26 scrub: %w", err)
	}
	res.report = rep
	res.scrubMsgs = rep.Stats.Messages
	res.latency += rep.Stats.Latency
	res.msgsPerKey = float64(res.scrubMsgs+res.healMsgs) / float64(keys)
	return res, nil
}
