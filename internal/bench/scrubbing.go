package bench

import (
	"bytes"
	"fmt"
	"math/rand"

	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
)

// E19ChaosScrub is the chaos soak for the integrity layer: the same DHT
// under the same seeded fault schedule — E17's message loss and node churn
// *plus* Byzantine reply corruption (bit flips, truncation, stale replay,
// equivocation; one node corrupting every reply) and seeded stored-state
// bit rot — run twice. The protected arm reads through checksummed-record
// verification with a periodic Merkle anti-entropy scrub pass and
// corruption-quarantine; the bare arm has the same loss-recovery machinery
// (retries, hedged reads, heal) but no integrity discipline.
//
// Two invariants are enforced, not just reported: the protected arm must
// surface zero corrupted payloads to the application (detect-or-fail) while
// keeping lookup success at or above 99%, and the bare arm must measurably
// surface corruption (otherwise the injection proves nothing).
func E19ChaosScrub(quick bool) (*Table, error) {
	peers, keys, ops, scrubEvery, rotEvery := 60, 80, 300, 25, 10
	if quick {
		peers, keys, ops, scrubEvery, rotEvery = 40, 30, 100, 20, 8
	}

	protected, err := runE19Arm(true, peers, keys, ops, scrubEvery, rotEvery)
	if err != nil {
		return nil, err
	}
	bare, err := runE19Arm(false, peers, keys, ops, scrubEvery, rotEvery)
	if err != nil {
		return nil, err
	}

	// The acceptance invariants: detect-or-fail with availability, against
	// an injection strong enough to hurt the unprotected system.
	if protected.surfaced != 0 {
		return nil, fmt.Errorf("bench: e19 invariant violated: protected arm surfaced %d corrupted reads", protected.surfaced)
	}
	if protected.okRate < 0.99 {
		return nil, fmt.Errorf("bench: e19 invariant violated: protected arm lookup success %.1f%% < 99%%", protected.okRate*100)
	}
	if bare.surfaced == 0 {
		return nil, fmt.Errorf("bench: e19 injection too weak: bare arm surfaced no corruption")
	}

	t := &Table{
		ID:     "E19",
		Title:  "integrity scrubber: corruption containment under loss + churn + Byzantine replies (DHT, k=3)",
		Header: []string{"arm", "ok%", "corrupt replies", "bit-rot", "surfaced", "detected", "repaired", "quarantined", "msg/op"},
	}
	for _, row := range []struct {
		name string
		r    e19Result
	}{{"bare", bare}, {"scrub+verify", protected}} {
		t.AddRow(
			row.name,
			fmt.Sprintf("%.1f", row.r.okRate*100),
			fmt.Sprintf("%d", row.r.corrupted),
			fmt.Sprintf("%d", row.r.injected),
			fmt.Sprintf("%d", row.r.surfaced),
			fmt.Sprintf("%d", row.r.detected),
			fmt.Sprintf("%d", row.r.repaired),
			fmt.Sprintf("%d", row.r.quarantined),
			fmt.Sprintf("%.1f", row.r.msgPerOp),
		)
	}
	t.AddNote("both arms face 10%% loss, 70%% uptime churn, four 5%%-rate Byzantine responders (bit-flip/truncate/replay/equivocate), one 100%% bit-flipper, and seeded stored bit rot")
	t.AddNote("surfaced = lookups that returned bytes differing from what was stored (checked out of band); the protected arm must hold this at exactly 0 — detect-or-fail")
	t.AddNote("detected = corrupt reads rejected by record verification + corrupt copies condemned by the scrubber; repairs push the verified-majority copy back")
	t.AddNote("quarantined = corruption-tainted open circuits at end of run: excluded from replica placement until a probe rehabilitates them")
	t.AddNote("paper claim (IV, Table I): integrity mechanisms (signatures, hash chains, Merkle trees) protect stored content — E19 shows they only pay off with an active verify-scrub-repair discipline on top")
	t.AddMetric("e19_protected_ok", "ratio", protected.okRate)
	t.AddMetric("e19_bare_ok", "ratio", bare.okRate)
	t.AddMetric("e19_protected_surfaced", "reads", float64(protected.surfaced))
	t.AddMetric("e19_bare_surfaced", "reads", float64(bare.surfaced))
	t.AddMetric("e19_detected", "reads", float64(protected.detected))
	t.AddMetric("e19_repaired", "copies", float64(protected.repaired))
	t.AddMetric("e19_quarantined", "nodes", float64(protected.quarantined))
	t.AddMetric("e19_protected_msg_per_op", "msg", protected.msgPerOp)
	t.AddMetric("e19_bare_msg_per_op", "msg", bare.msgPerOp)
	return t, nil
}

// e19Result is one arm's outcome.
type e19Result struct {
	ok          int
	okRate      float64
	corrupted   int // replies the network corrupted (simnet counter)
	injected    int // stored bit-rot events injected
	surfaced    int // corrupted bytes returned to the application
	detected    int // corrupt reads rejected + scrubber condemnations
	repaired    int // scrubber repairs pushed
	quarantined int // corruption-quarantined nodes at end of run
	msgPerOp    float64
}

// runE19Arm runs one arm of the soak. Both arms share every seed, so they
// face the same churn schedule and the same corruption pressure.
func runE19Arm(protected bool, peers, keys, ops, scrubEvery, rotEvery int) (e19Result, error) {
	const seed = int64(1913)
	res := e19Result{}
	net := simnet.New(simnet.DefaultConfig(seed))
	names := make([]simnet.NodeID, peers)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		return res, err
	}
	cfg := resilience.DefaultConfig(seed)
	if protected {
		cfg.Verify = scrub.Check
	} else {
		cfg.Quarantine = false
	}
	kv := resilience.Wrap(d, cfg)
	client := string(names[0])

	var scr *scrub.Scrubber
	if protected {
		scr = scrub.New(d, scrub.DefaultConfig(client))
		scr.SetVerdict(func(node string, ok bool) {
			if ok {
				kv.Breaker().Report(node, true)
			} else {
				kv.Breaker().ReportCorrupt(node)
			}
		})
	}

	// Populate on a healthy network: every value a sealed record, so both
	// arms store identical bytes and the out-of-band surfaced check is the
	// same comparison.
	allKeys := make([]string, keys)
	expected := make(map[string][]byte, keys)
	for i := range allKeys {
		key := fmt.Sprintf("k%d", i)
		allKeys[i] = key
		rec := scrub.Seal(key, []byte(fmt.Sprintf("post-%d", i)))
		expected[key] = rec
		if _, err := kv.Store(client, key, rec); err != nil {
			return res, fmt.Errorf("bench: e19 store: %w", err)
		}
	}

	// Fault injection: loss + churn (the client is exempt), mixed-mode
	// Byzantine responders at 5%, one node corrupting every reply, and
	// periodic seeded bit rot on stored copies.
	net.SetLossRate(0.10)
	sched, err := simnet.NewFaultSchedule(net, names[1:], simnet.ChurnConfig{
		Seed: seed, Uptime: 0.7, MeanOnline: 20,
	})
	if err != nil {
		return res, err
	}
	defer sched.Restore()
	modes := []simnet.ByzMode{simnet.ByzBitFlip, simnet.ByzTruncate, simnet.ByzReplay, simnet.ByzEquivocate}
	for j, idx := range []int{7, 13, 19, 25} {
		if err := net.SetByzantine(names[idx], simnet.ByzantineConfig{Mode: modes[j], Rate: 0.05, Seed: seed}); err != nil {
			return res, err
		}
	}
	if err := net.SetByzantine(names[31], simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1, Seed: seed}); err != nil {
		return res, err
	}
	rotRng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))

	var total overlay.OpStats
	for i := 0; i < ops; i++ {
		sched.Tick()

		// Seeded bit rot: flip a byte in one stored copy of one key. All
		// RNG draws happen unconditionally so both arms inject identically.
		if i%rotEvery == 0 {
			key := allKeys[rotRng.Intn(len(allKeys))]
			pick := rotRng.Intn(peers)
			pos := rotRng.Intn(1 << 16)
			var holders []string
			for _, nm := range names {
				if d.Holds(string(nm), key) {
					holders = append(holders, string(nm))
				}
			}
			if len(holders) > 0 {
				victim := holders[pick%len(holders)]
				if d.CorruptStored(victim, key, func(b []byte) []byte {
					if len(b) > 0 {
						b[pos%len(b)] ^= 0x01
					}
					return b
				}) {
					res.injected++
				}
			}
		}

		// Both arms heal (re-replication after churn) — the ablation
		// isolates the integrity discipline, not loss recovery. Note heal
		// trusts local copies: without the scrubber it can propagate rot.
		report, err := kv.Heal()
		if err != nil {
			return res, err
		}
		total.Add(report.Stats)

		// Protected arm: periodic anti-entropy scrub pass.
		if protected && i%scrubEvery == scrubEvery-1 {
			rep, err := scr.Scrub(allKeys)
			if err != nil {
				return res, err
			}
			total.Add(rep.Stats)
			res.detected += rep.CorruptCopies
			res.repaired += rep.RepairedWrites
		}

		key := allKeys[i%len(allKeys)]
		v, st, err := kv.Lookup(client, key)
		total.Add(st)
		if err == nil {
			res.ok++
			if !bytes.Equal(v, expected[key]) {
				res.surfaced++
			}
		}
	}

	res.detected += kv.Metrics().CorruptReads
	res.quarantined = len(kv.Breaker().QuarantinedNodes())
	res.okRate = float64(res.ok) / float64(ops)
	res.msgPerOp = float64(total.Messages) / float64(ops)
	res.corrupted = net.CorruptedReplies()
	return res, nil
}
