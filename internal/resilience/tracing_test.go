package resilience_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
)

// TestTracedLookupShowsRecoveryPhases is the end-to-end trace check: one
// traced Get against a corrupt primary replica must yield a span tree
// walking through attempt → fetch (verify: corruption) → hedge (verify: ok),
// each phase carrying its outcome tag and the fetches carrying simulated
// latency. The read pushes nothing: the rotten copy stays until a scrub
// pass over the key repairs it.
func TestTracedLookupShowsRecoveryPhases(t *testing.T) {
	const seed = 117
	net := simnet.New(simnet.Config{Seed: seed, BaseLatency: 10 * time.Millisecond})
	names := make([]simnet.NodeID, 20)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatalf("dht.New: %v", err)
	}
	client := string(names[0])
	const key = "post-1"
	record := scrub.Seal(key, []byte("signed-bytes"))
	if _, err := d.Store(client, key, record); err != nil {
		t.Fatalf("Store: %v", err)
	}
	// Rot the primary's copy: the lookup's first fetch serves bytes that
	// fail verification, forcing the hedge wave.
	replicas, _, err := d.ReplicasFor(client, key)
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	primary := replicas[0]
	if !d.CorruptStored(primary, key, func(b []byte) []byte {
		b[len(b)-1] ^= 0x80
		return b
	}) {
		t.Fatalf("primary %s does not hold %s", primary, key)
	}

	cfg := resilience.DefaultConfig(seed)
	cfg.Verify = scrub.Check
	kv := resilience.Wrap(d, cfg)
	reg := telemetry.NewRegistry()
	kv.SetTelemetry(reg)

	sp := telemetry.NewSpan("get")
	v, _, err := kv.LookupSpan(sp, client, key)
	if err != nil {
		t.Fatalf("LookupSpan: %v", err)
	}
	if !bytes.Equal(v, record) {
		t.Fatalf("lookup returned %q, want %q", v, record)
	}

	var buf bytes.Buffer
	sp.Render(&buf)
	t.Logf("trace:\n%s", buf.String())
	var (
		counts        = map[string]int{}
		corruptVerify bool
		cleanVerify   bool
		fetchLatency  time.Duration
	)
	sp.Walk(func(_ int, s *telemetry.Span) {
		counts[s.Name]++
		switch s.Name {
		case "verify":
			if s.Outcome == "corruption" {
				corruptVerify = true
			}
			if s.Outcome == "ok" {
				cleanVerify = true
			}
		case "fetch", "hedge":
			fetchLatency += s.Latency
		}
	})
	for _, name := range []string{"attempt", "resolve", "fetch", "hedge", "verify"} {
		if counts[name] == 0 {
			t.Fatalf("trace has no %q span:\n%s", name, buf.String())
		}
	}
	for name := range counts {
		switch name {
		case "get", "attempt", "resolve", "fetch", "hedge", "verify":
		default:
			t.Errorf("trace has a %q span; a read pushes nothing:\n%s", name, buf.String())
		}
	}
	if !corruptVerify || !cleanVerify {
		t.Errorf("verify outcomes: corruption=%v ok=%v, want both", corruptVerify, cleanVerify)
	}
	if fetchLatency == 0 {
		t.Error("fetch/hedge spans carry no simulated latency")
	}

	// The registry mirrored what the trace shows.
	for name, want := range map[string]int64{
		"resilience_corrupt_reads_total": 1,
		"resilience_hedges_total":        1,
		"resilience_ops_total":           1,
	} {
		if got := reg.Counter(name).Value(); got < want {
			t.Errorf("%s = %d, want >= %d", name, got, want)
		}
	}

	// The lookup left the rotten copy where it was.
	if rotten, _, err := d.LookupFrom(client, key, primary); err != nil || scrub.Check(key, rotten) == nil {
		t.Fatalf("primary copy changed by a read: %v %q", err, rotten)
	}

	// One scrub pass over the key repairs it.
	rep, err := scrub.New(d, scrub.DefaultConfig(client)).Scrub([]string{key})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.CorruptCopies != 1 || rep.RepairedWrites != 1 {
		t.Errorf("scrub pass: %d corrupt, %d repaired; want 1 and 1", rep.CorruptCopies, rep.RepairedWrites)
	}
	fixed, _, err := d.LookupFrom(client, key, primary)
	if err != nil || !bytes.Equal(fixed, record) {
		t.Fatalf("primary copy not repaired by the scrub pass: %v %q", err, fixed)
	}
}
