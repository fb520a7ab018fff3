package stack

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/resilience/load"
	"godosn/internal/resilience/scrub"
	"godosn/internal/telemetry"
)

const testSeed = int64(1601)

// handAssembled is the reference wiring, kept here on purpose: the layer
// constructors called directly in the order every experiment used before
// Build existed. Build must be indistinguishable from it.
func handAssembled(t *testing.T, names []simnet.NodeID, rcfg *resilience.Config, scrubbed bool) *Stack {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(testSeed))
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := &Stack{Names: names, Client: string(names[0]), Net: net, Overlay: d, DHT: d}
	if rcfg != nil {
		s.KV = resilience.Wrap(d, *rcfg)
	}
	if scrubbed {
		s.Scrub = scrub.New(d, scrub.DefaultConfig(s.Client))
		kv := s.KV
		s.Scrub.SetVerdict(func(node string, ok bool) {
			if ok {
				kv.Breaker().Report(node, true)
			} else {
				kv.Breaker().ReportCorrupt(node)
			}
		})
		s.Scrub.SetInvalidator(kv.InvalidateValue)
	}
	return s
}

// streamOutcome is everything the fixed op stream observes.
type streamOutcome struct {
	Stats   overlay.OpStats
	Digest  uint64
	Metrics resilience.Metrics
}

// driveStream runs a fixed 200-op stream over a stack: sealed records stored
// on a healthy network, then loss, one always-corrupting Byzantine node, a
// rotted stored copy every 10th op, a heal per op and a scrub pass every
// 50th (when those layers exist), and one lookup per op folded into a digest.
func driveStream(t *testing.T, s *Stack) streamOutcome {
	t.Helper()
	var front overlay.KV = s.Overlay
	if s.KV != nil {
		front = s.KV
	}
	var out streamOutcome
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		st, err := front.Store(s.Client, keys[i], scrub.Seal(keys[i], []byte(fmt.Sprintf("post-%d", i))))
		if err != nil {
			t.Fatalf("store %s: %v", keys[i], err)
		}
		out.Stats.Add(&st)
	}
	s.Net.SetLossRate(0.10)
	if err := s.Net.SetByzantine(s.Names[5], simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1, Seed: testSeed}); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < 200; i++ {
		key := keys[i%len(keys)]
		if i%10 == 0 {
			for _, name := range s.DHT.PlanReplicas(key) {
				if s.DHT.CorruptStored(name, key, func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }) {
					break
				}
			}
		}
		if s.KV != nil {
			rep, err := s.KV.Heal()
			if err != nil {
				t.Fatalf("heal: %v", err)
			}
			out.Stats.Add(&rep.Stats)
		}
		if s.Scrub != nil && i%50 == 49 {
			rep, err := s.Scrub.Scrub(keys)
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			out.Stats.Add(&rep.Stats)
		}
		v, st, err := front.Lookup(s.Client, key)
		out.Stats.Add(&st)
		fmt.Fprintf(h, "%s|%x|%v\n", key, v, err)
	}
	out.Digest = h.Sum64()
	if s.KV != nil {
		out.Metrics = s.KV.Metrics()
	}
	return out
}

// TestBuildMatchesHandAssembly: for each layer combination the experiments
// use, a stack from Build and the hand-assembled reference must produce
// DeepEqual cost, read digest and recovery metrics over the same op stream.
func TestBuildMatchesHandAssembly(t *testing.T) {
	verified := resilience.DefaultConfig(testSeed)
	verified.Verify = scrub.Check
	plain := resilience.DefaultConfig(testSeed)
	for _, tc := range []struct {
		name     string
		rcfg     *resilience.Config
		scrubbed bool
	}{
		{"bare DHT", nil, false},
		{"resilient", &plain, false},
		{"resilient+scrub+verdicts", &verified, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := NodeNames("node-%d", 24)
			spec := Spec{
				Names:      names,
				Net:        simnet.DefaultConfig(testSeed),
				DHT:        dht.Config{ReplicationFactor: 3},
				Resilience: tc.rcfg,
			}
			if tc.scrubbed {
				scfg := scrub.DefaultConfig("")
				spec.Scrub = &scfg
			}
			built, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := driveStream(t, built)
			want := driveStream(t, handAssembled(t, names, tc.rcfg, tc.scrubbed))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Build diverges from hand assembly:\n got %+v\nwant %+v", got, want)
			}
			if tc.scrubbed && got.Metrics.CorruptReads == 0 {
				t.Fatal("stream exercised no corruption: the comparison proves nothing about the verify path")
			}
		})
	}
}

// TestBuildOptionalLayersAreNil: every layer the Spec leaves out is nil, and
// a stack built without a registry runs.
func TestBuildOptionalLayersAreNil(t *testing.T) {
	s, err := Build(Spec{Names: NodeNames("node-%d", 8), Net: simnet.DefaultConfig(1), DHT: dht.Config{ReplicationFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.KV != nil || s.Scrub != nil || s.Sweep != nil {
		t.Fatalf("unrequested layers built: kv=%v scrub=%v sweep=%v", s.KV, s.Scrub, s.Sweep)
	}
	if s.DHT == nil || s.Overlay != overlay.KV(s.DHT) || s.Client != "node-0" {
		t.Fatalf("default overlay not the DHT: %+v", s)
	}
	if _, err := s.DHT.Store(s.Client, "k", []byte("v")); err != nil {
		t.Fatalf("store on registry-less stack: %v", err)
	}

	scfg := scrub.DefaultConfig("")
	s, err = Build(Spec{
		Names: NodeNames("node-%d", 8), Net: simnet.DefaultConfig(1), DHT: dht.Config{ReplicationFactor: 2},
		Scrub: &scfg, Sweep: &scrub.SweepConfig{ChunkKeys: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.KV != nil || s.Scrub == nil || s.Sweep == nil {
		t.Fatalf("scrub-only stack: kv=%v scrub=%v sweep=%v", s.KV, s.Scrub, s.Sweep)
	}
	// Without a decorator, verdicts have no breaker to report to: a pass
	// must simply run.
	if _, err := s.Scrub.Scrub([]string{"k"}); err != nil {
		t.Fatalf("scrub without decorator: %v", err)
	}
}

// TestBuildWiresScrubVerdictsIntoTheBreaker: a stack with a decorator and a
// scrubber quarantines a rate-1 liar from scrub passes alone, one strike per
// pass, and nobody else.
func TestBuildWiresScrubVerdictsIntoTheBreaker(t *testing.T) {
	rcfg := resilience.DefaultConfig(testSeed)
	rcfg.Verify = scrub.Check
	scfg := scrub.DefaultConfig("")
	st, err := Build(Spec{
		Names:      NodeNames("node-%d", 16),
		Net:        simnet.DefaultConfig(testSeed),
		DHT:        dht.Config{ReplicationFactor: 3},
		Resilience: &rcfg,
		Scrub:      &scfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if _, err := st.KV.Store(st.Client, keys[i], scrub.Seal(keys[i], []byte(keys[i]))); err != nil {
			t.Fatalf("store %s: %v", keys[i], err)
		}
	}
	liar := string(st.Names[4])
	if err := st.Net.SetByzantine(st.Names[4], simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1, Seed: testSeed}); err != nil {
		t.Fatal(err)
	}
	breaker := st.KV.Breaker()
	const threshold = 3 // the breaker's consecutive-failure threshold
	for pass := 1; pass <= threshold; pass++ {
		if breaker.Quarantined(liar) {
			t.Fatalf("liar quarantined before pass %d", pass)
		}
		rep, err := st.Scrub.Scrub(keys)
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		if rep.CorruptCopies == 0 {
			t.Fatalf("pass %d condemned no copy of the liar", pass)
		}
	}
	if q := breaker.QuarantinedNodes(); len(q) != 1 || q[0] != liar {
		t.Fatalf("QuarantinedNodes after %d passes = %v, want [%s]", threshold, q, liar)
	}
}

// TestBuildRejectsBadSpecs: malformed specs are errors, never panics.
func TestBuildRejectsBadSpecs(t *testing.T) {
	if _, err := Build(Spec{}); !errors.Is(err, overlay.ErrNoNodes) {
		t.Fatalf("empty Names: err = %v, want ErrNoNodes", err)
	}
	dup := []simnet.NodeID{"a", "b", "a"}
	if _, err := Build(Spec{Names: dup}); !errors.Is(err, simnet.ErrDuplicateNode) {
		t.Fatalf("duplicate Names: err = %v, want ErrDuplicateNode", err)
	}
	if _, err := Build(Spec{Names: NodeNames("n%d", 3), Sweep: &scrub.SweepConfig{}}); err == nil {
		t.Fatal("sweeper without scrubber accepted")
	}
	// An overlay that cannot address replicas cannot be scrubbed.
	scfg := scrub.DefaultConfig("")
	_, err := Build(Spec{
		Names: NodeNames("n%d", 3), Scrub: &scfg,
		Overlay: func(*simnet.Network, []simnet.NodeID) (overlay.KV, error) { return plainKV{}, nil },
	})
	if err == nil {
		t.Fatal("scrubber over a replica-less overlay accepted")
	}
}

// plainKV is an overlay with no replica addressing.
type plainKV struct{}

func (plainKV) Name() string { return "plain" }
func (plainKV) Store(string, string, []byte) (overlay.OpStats, error) {
	return overlay.OpStats{}, nil
}
func (plainKV) Lookup(string, string) ([]byte, overlay.OpStats, error) {
	return nil, overlay.OpStats{}, overlay.ErrNotFound
}

// TestBuildRegistersEveryLayer is the telemetry-drift regression: a stack
// with a route cache, server gates and a registry must expose the DHT's own
// instruments, not just simnet's and the decorator's. (The E22/E23 and
// core.Network wiring registered the registry on simnet and the KV only.)
func TestBuildRegistersEveryLayer(t *testing.T) {
	reg := telemetry.NewRegistry()
	rcfg := resilience.DefaultConfig(7)
	scfg := scrub.DefaultConfig("")
	s, err := Build(Spec{
		Names: NodeNames("node-%d", 12),
		Net:   simnet.DefaultConfig(7),
		DHT: dht.Config{
			ReplicationFactor: 3,
			RouteCache:        cache.Config{Capacity: 64, Shards: 1, Seed: 7},
			NodeGate:          load.GateConfig{PerTick: 4, QueueDepth: 2},
		},
		Resilience: &rcfg,
		Scrub:      &scfg,
		Sweep:      &scrub.SweepConfig{ChunkKeys: 4},
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.KV.Store(s.Client, "k", scrub.Seal("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.KV.Lookup(s.Client, "k"); err != nil {
			t.Fatal(err)
		}
	}
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"simnet_rpcs_total", "dht_route_cache_hits_total", "dht_gate_sheds_total",
		"resilience_ops_total", "scrub_passes_total", "scrub_sweep_ticks_total",
	} {
		if _, ok := counters[name]; !ok {
			t.Errorf("registry is missing %s", name)
		}
	}
	if counters["dht_route_cache_hits_total"] == 0 {
		t.Error("repeat lookups recorded no route-cache hits in the registry")
	}
}

// TestShortWriteIsRepairedByTheNextSweep is the one-repair-queue contract: a
// write acked while one of its placement replicas is offline is finished by
// the sweeper's next tick once the replica returns, even with the cursor on
// another chunk, because the DHT hands the key to the sweeper's queue. Both
// write paths: a Store and a PutBatch group.
//
// The overwrite arms are the freshness rule: v1 at version 1 on all three
// replicas, two non-client replicas offline, v2 at version 2 acked by the
// third. The next tick leaves every replica at v2 and condemns nobody, and
// two more ticks roll nothing back, on the batched and the per-key drill.
func TestShortWriteIsRepairedByTheNextSweep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		batch     bool
		overwrite bool
		perKey    bool
	}{
		{name: "store"},
		{name: "put-batch", batch: true},
		{name: "store-overwrite", overwrite: true},
		{name: "store-overwrite-perkey", overwrite: true, perKey: true},
		{name: "put-batch-overwrite", batch: true, overwrite: true},
		{name: "put-batch-overwrite-perkey", batch: true, overwrite: true, perKey: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := resilience.DefaultConfig(testSeed)
			rcfg.Verify = scrub.Check
			scfg := scrub.DefaultConfig("")
			scfg.PerKey = tc.perKey
			s, err := Build(Spec{
				Names:      NodeNames("node-%d", 16),
				Net:        simnet.DefaultConfig(testSeed),
				DHT:        dht.Config{ReplicationFactor: 3},
				Resilience: &rcfg,
				Scrub:      &scfg,
				// Unbudgeted: every tick scrubs exactly one chunk.
				Sweep: &scrub.SweepConfig{ChunkKeys: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 13)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			for _, key := range keys[:12] {
				if _, err := s.DHT.Store(s.Client, key, scrub.Seal(key, []byte(key))); err != nil {
					t.Fatal(err)
				}
			}
			target := keys[12]
			old := scrub.SealVersion(target, 1, []byte("v1"))
			if tc.overwrite {
				if _, err := s.DHT.Store(s.Client, target, old); err != nil {
					t.Fatal(err)
				}
			}
			s.Sweep.AddKeys(keys...) // chunks 0-2 hold k0..k11, chunk 3 the target
			if _, err := s.Sweep.Tick(); err != nil {
				t.Fatal(err)
			}

			plan := append([]string(nil), s.DHT.PlanReplicas(target)...)
			var away []simnet.NodeID
			for _, name := range append(append([]string(nil), plan[1:]...), plan[0]) {
				if name != s.Client {
					away = append(away, simnet.NodeID(name))
				}
			}
			away = away[:1]
			sealed := scrub.Seal(target, []byte("written short"))
			if tc.overwrite {
				away = away[:2]
				sealed = scrub.SealVersion(target, 2, []byte("v2"))
			}
			for _, n := range away {
				if err := s.Net.SetOnline(n, false); err != nil {
					t.Fatal(err)
				}
			}
			if tc.batch {
				errs, _, err := s.DHT.PutBatch(s.Client, []string{target}, [][]byte{sealed})
				if err == nil {
					err = errs[0]
				}
				if err != nil {
					t.Fatalf("PutBatch with %v offline: %v", away, err)
				}
			} else if _, err := s.DHT.Store(s.Client, target, sealed); err != nil {
				t.Fatalf("Store with %v offline: %v", away, err)
			}
			for _, n := range away {
				if err := s.Net.SetOnline(n, true); err != nil {
					t.Fatal(err)
				}
				got, held := s.DHT.StoredCopy(string(n), target)
				if held != tc.overwrite || (held && !bytes.Equal(got, old)) {
					t.Fatalf("%s holds %q (%v) of %s after being offline for the write", n, got, held, target)
				}
			}

			for tick := 1; tick <= 3; tick++ {
				rep, err := s.Sweep.Tick()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rep.Reports {
					if r.CorruptCopies != 0 {
						t.Fatalf("tick %d condemned %d copies: %+v", tick, r.CorruptCopies, r)
					}
				}
				for _, name := range s.DHT.PlanReplicas(target) {
					if got, ok := s.DHT.StoredCopy(name, target); !ok || !bytes.Equal(got, sealed) {
						t.Fatalf("after sweep tick %d %s holds %q (%v) of %s, want the acked write (plan %v)", tick, name, got, ok, target, plan)
					}
				}
				if q := s.KV.Breaker().QuarantinedNodes(); len(q) != 0 {
					t.Fatalf("after sweep tick %d the breaker quarantines %v", tick, q)
				}
			}
		})
	}
}

// TestGarbledReadDoesNotRollBackAnOverwrite is the one-repair-path
// contract: a read that detects a bad copy repairs nothing. Key k is at
// version 1 on its three holders, and an acknowledged overwrite puts version
// 2 on the primary A only. A's replies are garbled for one Lookup, which
// serves version 1 from a hedge. A must keep version 2, and the sweep over k
// then spreads version 2 to every holder: the newest verified copy wins.
// A read that pushed its hedge's value over the copy it could not verify
// would roll A back to version 1, and the sweep would then keep version 1
// everywhere.
func TestGarbledReadDoesNotRollBackAnOverwrite(t *testing.T) {
	rcfg := resilience.DefaultConfig(testSeed)
	rcfg.Verify = scrub.Check
	scfg := scrub.DefaultConfig("")
	s, err := Build(Spec{
		Names:      NodeNames("node-%d", 16),
		Net:        simnet.DefaultConfig(testSeed),
		DHT:        dht.Config{ReplicationFactor: 3},
		Resilience: &rcfg,
		Scrub:      &scfg,
		Sweep:      &scrub.SweepConfig{ChunkKeys: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if _, err := s.DHT.Store(s.Client, keys[i], scrub.Seal(keys[i], []byte(keys[i]))); err != nil {
			t.Fatal(err)
		}
	}
	// The first key whose hedged read starts at a node other than the
	// client, so the garbled replies cross the network.
	var (
		k       string
		holders []string
	)
	for _, key := range keys {
		names, _, err := s.DHT.ReplicasFor(s.Client, key)
		if err != nil {
			t.Fatal(err)
		}
		if names[0] != s.Client {
			k, holders = key, append([]string(nil), names...)
			break
		}
	}
	if k == "" {
		t.Fatal("every key's primary is the client")
	}
	v1 := scrub.SealVersion(k, 1, []byte("v1"))
	v2 := scrub.SealVersion(k, 2, []byte("v2"))
	for _, name := range holders {
		if _, err := s.DHT.StoreTo(s.Client, k, v1, name); err != nil {
			t.Fatal(err)
		}
	}
	a := holders[0]
	name := func(c []byte) string {
		switch {
		case bytes.Equal(c, v1):
			return "v1"
		case bytes.Equal(c, v2):
			return "v2"
		}
		return fmt.Sprintf("%q", c)
	}
	if _, err := s.DHT.StoreTo(s.Client, k, v2, a); err != nil {
		t.Fatal(err)
	}

	if err := s.Net.SetByzantine(simnet.NodeID(a), simnet.ByzantineConfig{Mode: simnet.ByzBitFlip, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.KV.Lookup(s.Client, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) || s.KV.Metrics().CorruptReads != 1 {
		t.Fatalf("garbled read served %s with %d corrupt reads; want v1 from a hedge after 1", name(got), s.KV.Metrics().CorruptReads)
	}
	if err := s.Net.SetByzantine(simnet.NodeID(a), simnet.ByzantineConfig{}); err != nil {
		t.Fatal(err)
	}
	if s.KV.Breaker().Open(a) {
		t.Fatalf("one garbled read opened %s's circuit", a)
	}
	if c, _ := s.DHT.StoredCopy(a, k); !bytes.Equal(c, v2) {
		t.Errorf("after the read %s holds %s, want the acknowledged v2", a, name(c))
	}

	s.Sweep.AddKeys(keys...)
	for i := 0; i < s.Sweep.Chunks(); i++ {
		if _, err := s.Sweep.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var (
		held []string
		old  bool
	)
	for _, h := range holders {
		c, _ := s.DHT.StoredCopy(h, k)
		held = append(held, h+"="+name(c))
		old = old || !bytes.Equal(c, v2)
	}
	if old {
		t.Errorf("after the sweep not every holder of %s holds v2: %v", k, held)
	}
	if got, _, err := s.KV.Lookup(s.Client, k); err != nil || !bytes.Equal(got, v2) {
		t.Errorf("after the sweep Lookup(%s) = %s, %v; want v2", k, name(got), err)
	}
}
