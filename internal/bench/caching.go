package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"godosn/internal/cache"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/social/identity"
	"godosn/internal/social/privacy"
	"godosn/internal/stack"
	"godosn/internal/workload"
)

// e21ZipfS is E21's read-popularity Zipf skew; reads draw from the full key
// space (the table's "hotset=0").
const e21ZipfS = 1.2

// E21CacheAcceleration measures the hot-path read caches end to end: the
// same resilient DHT under the same Zipf(s) read-mostly workload, once cold
// (no caches) and once warm (route cache + verified-value cache), with a
// write every 10th operation rotating the stored value so the run itself
// proves invalidation. Three invariants are
// enforced, not just reported: both arms must return byte-identical results
// (running digest compared in-run), the warm arm must cut simulated lookup
// latency by at least 2x, and the E17/E19 headline properties — full
// availability under loss+churn and zero surfaced corruption under
// Byzantine replies — must hold with every cache enabled. A hybrid-group
// probe additionally revokes a reader mid-stream and asserts the revoked
// reader's warm envelope-key cache cannot open post-revocation content.
func E21CacheAcceleration(quick bool) (*Table, error) {
	peers, keys, ops := 60, 80, 300
	if quick {
		peers, keys, ops = 40, 30, 120
	}

	cold, err := runE21Arm(false, peers, keys, ops)
	if err != nil {
		return nil, err
	}
	warm, err := runE21Arm(true, peers, keys, ops)
	if err != nil {
		return nil, err
	}
	if cold.digest != warm.digest {
		return nil, fmt.Errorf("bench: e21 invariant violated: cold and warm arms returned different bytes (digest %s vs %s)", cold.digest, warm.digest)
	}
	if warm.routeStats.Hits == 0 || warm.valueStats.Hits == 0 {
		return nil, fmt.Errorf("bench: e21 warm arm never hit (route %d, value %d)", warm.routeStats.Hits, warm.valueStats.Hits)
	}
	speedup := cold.latPerOp / warm.latPerOp
	if speedup < 2 {
		return nil, fmt.Errorf("bench: e21 invariant violated: warm-arm sim-latency speedup %.2fx < 2x", speedup)
	}

	// Fault soak: E17's loss+churn plus an always-corrupting Byzantine
	// responder and stored bit rot, with every cache enabled and the
	// scrubber wired to the value cache. The caches must not cost
	// availability (E17) or let a stale/corrupt byte through (E19).
	bareFault, err := runE21FaultArm(false, quick)
	if err != nil {
		return nil, err
	}
	cachedFault, err := runE21FaultArm(true, quick)
	if err != nil {
		return nil, err
	}
	if cachedFault.surfaced != 0 {
		return nil, fmt.Errorf("bench: e21 invariant violated: cached fault arm surfaced %d corrupted reads", cachedFault.surfaced)
	}
	if cachedFault.okRate < bareFault.okRate {
		return nil, fmt.Errorf("bench: e21 invariant violated: caches cost availability (%.1f%% < %.1f%%)", cachedFault.okRate*100, bareFault.okRate*100)
	}

	rv, err := runE21RevocationProbe()
	if err != nil {
		return nil, err
	}
	if !rv.denied {
		return nil, errors.New("bench: e21 invariant violated: revoked reader's warm key cache opened post-revocation content")
	}
	if !rv.intact {
		return nil, errors.New("bench: e21 invariant violated: remaining reader broken after mid-stream revocation")
	}

	t := &Table{
		ID:     "E21",
		Title:  fmt.Sprintf("hot-path read caches: cold vs warm under Zipf(%.2g) read-mostly workload (DHT+resilience, k=3)", e21ZipfS),
		Header: []string{"arm", "ops", "msg/op", "lat/op", "route hit%", "value hit%"},
	}
	for _, row := range []struct {
		name string
		r    e21Result
	}{{"cold (no caches)", cold}, {"warm (route+value)", warm}} {
		t.AddRow(
			row.name,
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%.1f", row.r.msgPerOp),
			fmt.Sprintf("%.1fms", row.r.latPerOp),
			fmt.Sprintf("%.1f", row.r.routeStats.HitRate()*100),
			fmt.Sprintf("%.1f", row.r.valueStats.HitRate()*100),
		)
	}
	t.AddNote("every 10th op overwrites the Zipf-chosen key with a rotating value; each arm asserts in-run that every read returns the latest write (a stale cache fails the experiment)")
	t.AddNote("both arms returned byte-identical read sequences (running sha256 compared); warm speedup %.1fx (sim latency), %.1fx (messages)", speedup, cold.msgPerOp/warm.msgPerOp)
	t.AddNote("fault soak (10%% loss, 70%% uptime churn, 100%%-rate bit-flip Byzantine responder, stored bit rot, scrub wired to value-cache invalidation): ok %.1f%%→%.1f%% bare→cached, surfaced 0→0", bareFault.okRate*100, cachedFault.okRate*100)
	t.AddNote("revocation probe: hybrid group, reader revoked mid-stream with a warm envelope-key cache (%d hits) — revoked reader denied, remaining reader byte-correct across the rekey", rv.hits)
	t.AddNote("reads draw Zipf(s=%.2g) over the full key space (hotset=0); both are fixed constants", e21ZipfS)
	t.AddMetric("e21_speedup_latency", "x", speedup)
	t.AddMetric("e21_speedup_messages", "x", cold.msgPerOp/warm.msgPerOp)
	t.AddMetric("e21_route_hit_rate", "ratio", warm.routeStats.HitRate())
	t.AddMetric("e21_value_hit_rate", "ratio", warm.valueStats.HitRate())
	t.AddMetric("e21_arms_identical", "bool", 1)
	t.AddMetric("e21_fault_ok_cached", "ratio", cachedFault.okRate)
	t.AddMetric("e21_fault_surfaced_cached", "reads", float64(cachedFault.surfaced))
	t.AddMetric("e21_key_cache_hits", "hits", float64(rv.hits))
	return t, nil
}

// e21Result is one arm's outcome on the healthy-network sweep.
type e21Result struct {
	msgPerOp   float64
	latPerOp   float64 // milliseconds of simulated latency
	digest     string
	routeStats cache.Stats
	valueStats cache.Stats
}

// runE21Arm drives the Zipf read-mostly workload over one arm. Reads and
// writes run serially (the workload sequence is the experiment's identity;
// concurrency determinism is covered by the cache package's own tests).
func runE21Arm(cached bool, peers, keys, ops int) (e21Result, error) {
	const seed = int64(2117)
	res := e21Result{}
	dcfg := dht.Config{ReplicationFactor: 3}
	rcfg := resilience.DefaultConfig(seed)
	if cached {
		dcfg.RouteCache = cache.Config{Capacity: 4 * peers, Shards: 8, Seed: seed}
		rcfg.Cache = cache.Config{Capacity: 2 * keys, Shards: 8, Seed: seed}
	}
	st, err := stack.Build(stack.Spec{
		Names:      benchNames(peers),
		Net:        simnet.DefaultConfig(seed),
		DHT:        dcfg,
		Resilience: &rcfg,
	})
	if err != nil {
		return res, err
	}
	kv, client := st.KV, st.Client

	expected := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		val := []byte(fmt.Sprintf("v-%d-initial", i))
		if _, err := kv.Store(client, key, val); err != nil {
			return res, fmt.Errorf("bench: e21 store: %w", err)
		}
		expected[key] = val
	}

	zipf, err := workload.NewZipf(keys, e21ZipfS, seed)
	if err != nil {
		return res, err
	}

	h := sha256.New()
	var total overlay.OpStats
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", zipf.Next())
		if i%10 == 9 {
			// Rotating write: the very key the Zipf draw picked, so the
			// cache's hottest entries keep getting invalidated.
			val := []byte(fmt.Sprintf("v-%s-rot-%d", key, i))
			st, err := kv.Store(client, key, val)
			total.Add(&st)
			if err != nil {
				return res, fmt.Errorf("bench: e21 rotating store: %w", err)
			}
			expected[key] = val
			fmt.Fprintf(h, "w:%s:%s\n", key, val)
			continue
		}
		v, st, err := kv.Lookup(client, key)
		total.Add(&st)
		if err != nil {
			return res, fmt.Errorf("bench: e21 lookup %s: %w", key, err)
		}
		if !bytes.Equal(v, expected[key]) {
			return res, fmt.Errorf("bench: e21 stale read (cached=%v): %s returned %q, want %q", cached, key, v, expected[key])
		}
		fmt.Fprintf(h, "r:%s:%s\n", key, v)
	}
	res.msgPerOp = float64(total.Messages) / float64(ops)
	res.latPerOp = float64(total.Latency) / float64(ops) / float64(time.Millisecond)
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.routeStats = st.DHT.RouteCacheStats()
	res.valueStats = kv.ValueCacheStats()
	return res, nil
}

// e21Fault is one fault-soak arm's outcome.
type e21Fault struct {
	okRate   float64
	surfaced int
}

// runE21FaultArm re-runs the E17/E19 conditions — loss, churn, a 100%-rate
// bit-flipping Byzantine responder, and seeded stored bit rot — through the
// full protected stack (record verification, scrubbing, quarantine), with
// or without the read caches. The scrubber's value-cache invalidator and
// the breaker's quarantine hook are the coherence paths under test.
func runE21FaultArm(cached bool, quick bool) (e21Fault, error) {
	const seed = int64(2119)
	peers, keys, ops, scrubEvery, rotEvery := 60, 40, 200, 25, 10
	if quick {
		peers, keys, ops, scrubEvery, rotEvery = 40, 20, 80, 20, 8
	}
	dcfg := dht.Config{ReplicationFactor: 3}
	rcfg := resilience.DefaultConfig(seed)
	rcfg.Verify = scrub.Check
	if cached {
		dcfg.RouteCache = cache.Config{Capacity: 4 * peers, Shards: 8, Seed: seed}
		rcfg.Cache = cache.Config{Capacity: 2 * keys, Shards: 8, Seed: seed}
	}
	scfg := scrub.DefaultConfig("")
	st, err := stack.Build(stack.Spec{
		Names:      benchNames(peers),
		Net:        simnet.DefaultConfig(seed),
		DHT:        dcfg,
		Resilience: &rcfg,
		Scrub:      &scfg,
	})
	if err != nil {
		return e21Fault{}, err
	}
	run, err := soak{
		name: "e21 fault", seed: seed, keys: keys, ops: ops,
		loss: 0.10, uptime: 0.7, byz: []byzFault{{peers / 2, simnet.ByzBitFlip, 1}},
		rotEvery: rotEvery, rotSalt: 0x5ca1ab1e, scrubEvery: scrubEvery,
	}.run(st)
	if err != nil {
		return e21Fault{}, err
	}
	return e21Fault{okRate: run.okRate(ops), surfaced: run.surfaced}, nil
}

// e21Revoke is the mid-stream revocation probe's outcome.
type e21Revoke struct {
	hits   int64 // envelope-key cache hits accumulated before the revocation
	denied bool  // revoked reader rejected after Remove despite a warm cache
	intact bool  // remaining reader still reads every byte correctly
}

// runE21RevocationProbe warms a hybrid group's envelope-key cache for two
// readers, revokes one mid-stream, and checks both sides of the coherence
// contract: the revoked reader is denied, the survivor re-fills under the
// new epoch and reads the re-encrypted archive byte-correctly.
func runE21RevocationProbe() (e21Revoke, error) {
	res := e21Revoke{}
	reg := identity.NewRegistry()
	users := make(map[string]*identity.User, 2)
	for _, n := range []string{"alice", "bob"} {
		u, err := identity.NewUser(n)
		if err != nil {
			return res, err
		}
		if err := reg.Register(u); err != nil {
			return res, err
		}
		users[n] = u
	}
	owner, err := pubkey.NewSigningKeyPair()
	if err != nil {
		return res, err
	}
	g, err := privacy.NewHybridGroup("e21", reg, owner)
	if err != nil {
		return res, err
	}
	g.SetKeyCache(cache.Config{Capacity: 32, Shards: 2, Seed: 2121})
	for _, n := range []string{"alice", "bob"} {
		if err := g.Add(n); err != nil {
			return res, err
		}
	}
	plaintexts := make([][]byte, 5)
	envs := make([]privacy.Envelope, 5)
	for i := range envs {
		plaintexts[i] = []byte(fmt.Sprintf("post-%d", i))
		env, err := g.Encrypt(plaintexts[i])
		if err != nil {
			return res, err
		}
		envs[i] = env
	}
	// Warm both readers' key caches with repeat reads.
	for pass := 0; pass < 2; pass++ {
		for i, env := range envs {
			for _, n := range []string{"alice", "bob"} {
				pt, err := g.Decrypt(users[n], env)
				if err != nil || !bytes.Equal(pt, plaintexts[i]) {
					return res, fmt.Errorf("bench: e21 probe warm read: %q, %v", pt, err)
				}
			}
		}
	}
	res.hits = g.KeyCacheStats().Hits

	if _, err := g.Remove("bob"); err != nil {
		return res, err
	}
	post, err := g.Encrypt([]byte("post-revocation"))
	if err != nil {
		return res, err
	}
	plaintexts = append(plaintexts, []byte("post-revocation"))
	res.denied = errors.Is(func() error { _, err := g.Decrypt(users["bob"], post); return err }(), privacy.ErrNotMember)
	res.intact = true
	if pt, err := g.Decrypt(users["alice"], post); err != nil || !bytes.Equal(pt, []byte("post-revocation")) {
		res.intact = false
	}
	// The archive was re-encrypted under the new epoch; the survivor must
	// read it through a fresh fill, not a stale hit.
	for i, env := range g.Archive() {
		if pt, err := g.Decrypt(users["alice"], env); err != nil || !bytes.Equal(pt, plaintexts[i]) {
			res.intact = false
		}
	}
	return res, nil
}
