package bench

import (
	"fmt"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/stack"
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
// face the same churn schedule and the same corruption pressure, and both
// heal (re-replication after churn) — the ablation isolates the integrity
// discipline, not loss recovery.
func runE19Arm(protected bool, peers, keys, ops, scrubEvery, rotEvery int) (e19Result, error) {
	const seed = int64(1913)
	rcfg := resilience.DefaultConfig(seed)
	spec := stack.Spec{
		Names:      benchNames(peers),
		Net:        simnet.DefaultConfig(seed),
		DHT:        dht.Config{ReplicationFactor: 3},
		Resilience: &rcfg,
	}
	if protected {
		rcfg.Verify = scrub.Check
		scfg := scrub.DefaultConfig("")
		spec.Scrub = &scfg
	}
	st, err := stack.Build(spec)
	if err != nil {
		return e19Result{}, err
	}
	// Loss + churn (the client is exempt), mixed-mode Byzantine responders,
	// and periodic seeded bit rot on stored copies.
	run, err := soak{
		name: "e19", seed: seed, keys: keys, ops: ops,
		loss: 0.10, uptime: 0.7, byz: e19Byzantine,
		rotEvery: rotEvery, rotSalt: 0x5ca1ab1e, scrubEvery: scrubEvery,
	}.run(st)
	if err != nil {
		return e19Result{}, err
	}
	return e19Result{
		okRate:      run.okRate(ops),
		corrupted:   st.Net.CorruptedReplies(),
		injected:    run.injected,
		surfaced:    run.surfaced,
		detected:    run.detected + st.KV.Metrics().CorruptReads,
		repaired:    run.repaired,
		quarantined: len(st.KV.Breaker().QuarantinedNodes()),
		msgPerOp:    run.msgPerOp(ops),
	}, nil
}
