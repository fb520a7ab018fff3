package dht

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/telemetry"
)

// replicaNames returns the canonical replica set of a key.
func replicaNames(d *DHT, key string) []simnet.NodeID {
	ids := d.view().successorsOf(nil, hashID(key), d.replica)
	out := make([]simnet.NodeID, len(ids))
	for i, id := range ids {
		out[i] = d.view().byID[id].name
	}
	return out
}

// liveCopies counts the online nodes holding key.
func liveCopies(d *DHT, key string) int {
	count := 0
	for _, n := range d.view().members() {
		if d.net.Online(n.name) && d.Holds(string(n.name), key) {
			count++
		}
	}
	return count
}

func TestStoreIdempotentUnderAckLoss(t *testing.T) {
	// A store whose ack is lost HAS been applied. Retrying it must be
	// safe: the same key/value lands again on the same replicas, and the
	// final state is exactly one copy per replica with the right bytes.
	sawAckLost := false
	for seed := int64(0); seed < 60; seed++ {
		net := simnet.New(simnet.Config{Seed: seed})
		net.SetLossRate(0.35)
		names := make([]simnet.NodeID, 16)
		for i := range names {
			names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
		}
		d, err := New(net, names, Config{ReplicationFactor: 3})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		value := []byte("payload")
		var lastErr error
		stored := false
		for attempt := 0; attempt < 8 && !stored; attempt++ {
			_, lastErr = d.Store(string(names[0]), "k", value)
			switch f := resilience.Classify(lastErr); f {
			case resilience.FaultNone:
				stored = true
			case resilience.FaultAckLost:
				sawAckLost = true // applied-but-unacked: retry must be safe
			case resilience.FaultTransient:
			default:
				t.Fatalf("seed %d: unexpected fault class %v for %v", seed, f, lastErr)
			}
		}
		if !stored {
			continue // pathologically lossy seed; the sweep has plenty more
		}
		// However many times the store (re-)landed, state must be exact.
		net.SetLossRate(0)
		got, _, err := d.Lookup(string(names[1]), "k")
		if err != nil {
			t.Fatalf("seed %d: lookup after retried store: %v", seed, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("seed %d: value corrupted by retries: %q", seed, got)
		}
		for _, name := range replicaNames(d, "k") {
			n := d.view().names[name]
			n.mu.Lock()
			v, ok := n.data.get("k")
			n.mu.Unlock()
			if ok && !bytes.Equal(v, value) {
				t.Fatalf("seed %d: replica %s holds corrupted copy %q", seed, name, v)
			}
		}
	}
	if !sawAckLost {
		t.Fatal("seed sweep never produced an ack-lost store; the test proves nothing")
	}
}

func TestHealRestoresReplicationAfterPartitionHeals(t *testing.T) {
	// Keys stored during a partition reach only the reachable part of
	// their replica set. After the partition heals, an anti-entropy pass
	// must restore the full replication factor.
	net := simnet.New(simnet.Config{Seed: 17})
	names := make([]simnet.NodeID, 30)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Partition a third of the ring away from the store origin.
	for i := 20; i < 30; i++ {
		if err := net.SetPartition(names[i], 1); err != nil {
			t.Fatalf("SetPartition: %v", err)
		}
	}
	stored := []string{}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := d.Store(string(names[0]), key, []byte("v")); err == nil {
			stored = append(stored, key)
		}
	}
	if len(stored) == 0 {
		t.Fatal("no store succeeded from the majority partition")
	}
	underReplicated := 0
	for _, key := range stored {
		if liveCopies(d, key) < 3 {
			underReplicated++
		}
	}
	if underReplicated == 0 {
		t.Fatal("partition produced no under-replicated keys; test setup is wrong")
	}
	// Heal the partition, then run the repair pass.
	for i := 20; i < 30; i++ {
		if err := net.SetPartition(names[i], 0); err != nil {
			t.Fatalf("SetPartition: %v", err)
		}
	}
	report, err := d.Heal()
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if report.Repaired == 0 {
		t.Fatal("heal pass repaired nothing despite under-replicated keys")
	}
	for _, key := range stored {
		if got := liveCopies(d, key); got < 3 {
			t.Fatalf("key %s has %d live copies after heal, want >= 3", key, got)
		}
	}
}

func TestHealRepairsCrashRestartStateLoss(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 23})
	names := make([]simnet.NodeID, 24)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := d.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	if got := liveCopies(d, "k"); got != 3 {
		t.Fatalf("fresh store has %d live copies, want 3", got)
	}
	victim := replicaNames(d, "k")[0]
	if err := net.Crash(victim); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := net.SetOnline(victim, true); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := liveCopies(d, "k"); got != 2 {
		t.Fatalf("after crash-restart %d live copies, want 2 (state lost)", got)
	}
	report, err := d.Heal()
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if report.Repaired < 1 {
		t.Fatalf("heal repaired %d copies, want >= 1", report.Repaired)
	}
	if got := liveCopies(d, "k"); got != 3 {
		t.Fatalf("after heal %d live copies, want 3", got)
	}
	// The restored copy must serve reads from the repaired replica.
	v, _, err := d.LookupFrom(string(names[1]), "k", string(victim))
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("repaired replica does not serve the key: %v %q", err, v)
	}
}

func TestHealPushesToLiveSuccessorsWhileReplicasDown(t *testing.T) {
	// While canonical replicas are offline, heal re-replicates onto the
	// next online successors, and ReplicasFor extends into them — the
	// path that keeps lookups succeeding mid-churn.
	net := simnet.New(simnet.Config{Seed: 29})
	names := make([]simnet.NodeID, 24)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := d.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	replicas := replicaNames(d, "k")
	var origin simnet.NodeID
pick:
	for _, name := range names {
		for _, r := range replicas {
			if name == r {
				continue pick
			}
		}
		origin = name
		break
	}
	// Take two of three canonical replicas down; heal must push copies to
	// live successors beyond the canonical set.
	for _, r := range replicas[:2] {
		if err := net.SetOnline(r, false); err != nil {
			t.Fatalf("SetOnline: %v", err)
		}
	}
	if _, err := d.Heal(); err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if got := liveCopies(d, "k"); got < 3 {
		t.Fatalf("heal left %d live copies with 2 canonical replicas down, want >= 3", got)
	}
	cands, _, err := d.ReplicasFor(string(origin), "k")
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	foundLive := false
	for _, c := range cands {
		if !net.Online(simnet.NodeID(c)) {
			continue
		}
		if v, _, err := d.LookupFrom(string(origin), "k", c); err == nil && bytes.Equal(v, []byte("v")) {
			foundLive = true
			break
		}
	}
	if !foundLive {
		t.Fatal("no online ReplicasFor candidate serves the key after heal")
	}
}

// wipedReplica stores "k" on a 12-node ring, then crash-restarts its first
// canonical replica, which comes back online with an empty store. It
// returns the ring's first four successors of the key.
func wipedReplica(t *testing.T) (*DHT, []simnet.NodeID) {
	t.Helper()
	d, net, names := buildDHT(t, 12, Config{ReplicationFactor: 3})
	if _, err := d.Store(string(names[0]), "k", []byte("v")); err != nil {
		t.Fatalf("Store: %v", err)
	}
	var succ []simnet.NodeID
	for _, id := range d.view().successorsOf(nil, hashID("k"), 4) {
		succ = append(succ, d.view().byID[id].name)
	}
	if err := net.Crash(succ[0]); err != nil {
		t.Fatal(err)
	}
	if err := net.SetOnline(succ[0], true); err != nil {
		t.Fatal(err)
	}
	return d, succ
}

func TestHealSkipsPlacementVetoedHolder(t *testing.T) {
	// A quarantined canonical replica is online but vetoed by placement:
	// heal treats it as Store does and re-replicates onto the next allowed
	// successor instead.
	d, succ := wipedReplica(t)
	d.SetPlacementFilter(func(node string) bool { return node != string(succ[0]) })
	report, err := d.Heal()
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if report.Repaired != 1 {
		t.Fatalf("heal repaired %d copies, want 1", report.Repaired)
	}
	if d.Holds(string(succ[0]), "k") {
		t.Fatalf("heal pushed onto the placement-vetoed node %s", succ[0])
	}
	if !d.Holds(string(succ[3]), "k") {
		t.Fatalf("next allowed successor %s got no copy", succ[3])
	}
}

func TestHealFallsBackWhenPlacementVetoesEveryNode(t *testing.T) {
	// A filter that vetoes every online node must not brick heal: targets
	// fall back to the online successors, as placementOf falls back for
	// writes.
	d, succ := wipedReplica(t)
	d.SetPlacementFilter(func(string) bool { return false })
	report, err := d.Heal()
	if err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if report.Repaired != 1 || !d.Holds(string(succ[0]), "k") {
		t.Fatalf("heal with every node vetoed: %+v, wiped replica holds k = %v", report, d.Holds(string(succ[0]), "k"))
	}
	if got := liveCopies(d, "k"); got != 3 {
		t.Fatalf("after heal %d live copies, want 3", got)
	}
}

func TestLookupFromErrors(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 31})
	names := []simnet.NodeID{"a", "b", "c"}
	d, err := New(net, names, Config{ReplicationFactor: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := d.LookupFrom("a", "k", "nope"); !errors.Is(err, simnet.ErrUnknownNode) {
		t.Fatalf("LookupFrom unknown replica: got %v", err)
	}
	if _, _, err := d.LookupFrom("a", "missing", "b"); !errors.Is(err, overlay.ErrNotFound) {
		t.Fatalf("LookupFrom missing key: got %v", err)
	}
}

// referencePlan is replicaPlan as it stood before the view kept each
// segment's canonical names, kept verbatim as the model ReplicasFor and
// PlanReplicas are checked against: a fresh slice and seen-set per call.
func referencePlan(d *DHT, root uint64) []string {
	v := d.view()
	names := make([]string, 0, 2*d.replica)
	seen := make(map[uint64]bool, 2*d.replica)
	var ids replicaIDs
	for _, rid := range v.successorsOf(ids[:0], root, d.replica) {
		seen[rid] = true
		names = append(names, string(v.byID[rid].name))
	}
	// Extend past the canonical set until d.replica online candidates are
	// found (or the ring is exhausted), mirroring where Heal re-replicates.
	// Placement-vetoed (quarantined) nodes stay in the returned list — they
	// may hold older copies — but do not count toward the online target, so
	// the extension reaches the nodes placement actually chose around them.
	online := 0
	for _, name := range names {
		if d.net.Online(simnet.NodeID(name)) && v.placementAllowed(simnet.NodeID(name)) {
			online++
		}
	}
	i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= root })
	for walked := 0; walked < len(v.ring) && online < d.replica && len(names) < 2*d.replica; walked++ {
		if i == len(v.ring) {
			i = 0
		}
		rid := v.ring[i]
		i++
		if seen[rid] {
			continue
		}
		seen[rid] = true
		n := v.byID[rid]
		if d.net.Online(n.name) {
			names = append(names, string(n.name))
			if v.placementAllowed(n.name) {
				online++
			}
		}
	}
	if v.rankRepl != nil {
		names = v.rankRepl(names)
	}
	return names
}

func TestReplicaPlanMatchesReference(t *testing.T) {
	// The shared canonical slice must be exactly what the old per-call
	// builder returned, in every world the builder distinguishes: holders
	// offline, vetoed by placement (some or all), a ranker on or off, and k
	// below, at and above what the ring can hold. A caller appending to a
	// plan it got must not reach the next caller's.
	const ringSize = 48
	reverse := func(in []string) []string {
		out := make([]string, len(in))
		for i, name := range in {
			out[len(in)-1-i] = name
		}
		return out
	}
	filters := []struct {
		name  string
		allow func(string) bool
	}{
		{"no-filter", nil},
		{"some-vetoed", func(node string) bool { return hashID(node)%5 != 0 }},
		{"all-vetoed", func(string) bool { return false }},
	}
	for _, k := range []int{1, 3, ringSize + 1} {
		d, net, names := buildDHT(t, ringSize, Config{ReplicationFactor: k})
		origin := string(names[0])
		// One key per ring segment, so every canonical slice is handed out.
		v := d.view()
		keys := make([]string, len(v.ring))
		for covered, i := 0, 0; covered < len(v.ring); i++ {
			key := fmt.Sprintf("seg-%d", i)
			if seg := v.segmentOf(hashID(key)); keys[seg] == "" {
				keys[seg] = key
				covered++
			}
		}
		check := func(what string, got, want []string) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d %s: got %v, want %v", k, what, got, want)
			}
			_ = append(got, "intruder")
		}
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for i, name := range names {
				// The origin stays up; seed 0 is the healthy ring.
				_ = net.SetOnline(name, i == 0 || seed == 0 || rng.Intn(10) < 7)
			}
			for _, filter := range filters {
				d.SetPlacementFilter(filter.allow)
				for _, ranked := range []bool{false, true} {
					d.SetReplicaRanker(nil)
					if ranked {
						d.SetReplicaRanker(reverse)
					}
					what := fmt.Sprintf("seed %d %s ranked=%v", seed, filter.name, ranked)
					for _, key := range keys {
						for round := 0; round < 2; round++ {
							check(what+" PlanReplicas("+key+")", d.PlanReplicas(key), referencePlan(d, hashID(key)))
							f := borrowFrame()
							root, _, err := d.findSuccessor(f, simnet.NodeID(origin), hashID(key))
							returnFrame(f)
							if err != nil {
								t.Fatalf("k=%d %s: routing %s: %v", k, what, key, err)
							}
							plan, _, err := d.ReplicasFor(origin, key)
							if err != nil {
								t.Fatalf("k=%d %s: ReplicasFor(%s): %v", k, what, key, err)
							}
							check(what+" ReplicasFor("+key+")", plan, referencePlan(d, root))
						}
					}
				}
			}
		}
	}
}

func TestSharedPlansSurviveConcurrentMembershipChanges(t *testing.T) {
	// Hedged reads share the view's canonical slices while another goroutine
	// takes holders offline, vetoes and un-vetoes placement, and joins
	// nodes. Under -race this is the check that nobody writes through a
	// plan; every read that succeeds must return the value stored.
	d, net, names := buildDHT(t, 24, Config{ReplicationFactor: 3})
	kv := resilience.Wrap(d, resilience.DefaultConfig(1))
	valueOf := func(key string) []byte { return []byte("value of " + key) }
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("hammer-%d", i)
		if _, err := d.Store(string(names[0]), keys[i], valueOf(keys[i])); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	var readers sync.WaitGroup
	for c := 0; c < 2; c++ {
		readers.Add(1)
		go func(c int) {
			defer readers.Done()
			for i := 0; i < 1500; i++ {
				key := keys[(i*(3+2*c)+c)%len(keys)]
				if v, _, err := kv.Lookup(string(names[c]), key); err == nil && !bytes.Equal(v, valueOf(key)) {
					t.Errorf("client %d: Lookup(%s) = %q", c, key, v)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	rng := rand.New(rand.NewSource(7))
	for round := 0; ; round++ {
		select {
		case <-done:
			return
		default:
		}
		victim := names[2+rng.Intn(len(names)-2)]
		_ = net.SetOnline(victim, false)
		switch round % 3 {
		case 0:
			d.SetPlacementFilter(func(node string) bool { return node != string(victim) })
		case 1:
			d.SetPlacementFilter(nil)
		default:
			if round < 60 {
				if err := d.Join(simnet.NodeID(fmt.Sprintf("joiner-%d", round))); err != nil {
					t.Errorf("Join: %v", err)
				}
			}
		}
		runtime.Gosched()
		_ = net.SetOnline(victim, true)
	}
}

// liveTargets is the per-key target computation referenceHeal plans with:
// the first k online successors of the key's root that placement allows,
// or the first k online ones when placement allows no online node.
func (d *DHT) liveTargets(root uint64, k int) []*node {
	v := d.view()
	walk := func(eligible func(*node) bool) []*node {
		out := make([]*node, 0, k)
		i := sort.Search(len(v.ring), func(i int) bool { return v.ring[i] >= root })
		for walked := 0; walked < len(v.ring) && len(out) < k; walked++ {
			if i == len(v.ring) {
				i = 0
			}
			n := v.byID[v.ring[i]]
			i++
			if d.net.Online(n.name) && eligible(n) {
				out = append(out, n)
			}
		}
		return out
	}
	if out := walk(func(n *node) bool { return v.placementAllowed(n.name) }); len(out) > 0 {
		return out
	}
	return walk(func(*node) bool { return true })
}

// referenceHeal is the heal pass as it stood before the probe-based scan,
// kept verbatim as the model HealSpan is checked against: it builds the
// global key → online holders map, sorts every key, and plans each key from
// its own liveTargets walk.
func referenceHeal(d *DHT, sp *telemetry.Span) (overlay.HealReport, error) {
	// Snapshot key -> online holders from node-local scans.
	holders := make(map[string][]*node)
	for _, n := range d.view().members() {
		if !d.net.Online(n.name) {
			continue
		}
		n.mu.Lock()
		n.data.each(func(key string, _ uint32, _ []byte) { holders[key] = append(holders[key], n) })
		n.mu.Unlock()
	}

	keys := make([]string, 0, len(holders))
	for key := range holders {
		keys = append(keys, key)
	}
	sort.Strings(keys) // deterministic pass order

	tr := &simnet.Trace{}
	report := overlay.HealReport{KeysScanned: len(keys)}

	// Plan every push first (node-local, free of network cost): for each
	// under-replicated key, the lowest-id online holder pushes to each
	// online successor missing a copy. The plan is then either executed
	// per key (PerKeyHeal: one store RPC per push, the measured baseline)
	// or coalesced per (holder, target) pair into store_batch envelopes —
	// one message pair moves every key that pair shares.
	type healPush struct {
		key   string
		value []byte
		src   simnet.NodeID
		dst   simnet.NodeID
	}
	type healPair struct{ src, dst simnet.NodeID }
	var flat []healPush // key-major plan order (the per-key baseline order)
	var pairOrder []healPair
	planned := make(map[healPair][]healPush)
	failed := make(map[string]bool)
	for _, key := range keys {
		hs := holders[key]
		hasCopy := make(map[simnet.NodeID]bool, len(hs))
		for _, h := range hs {
			hasCopy[h.name] = true
		}
		targets := d.liveTargets(hashID(key), d.replica)
		src := hs[0]
		var value []byte
		for _, target := range targets {
			if hasCopy[target.name] {
				continue
			}
			if value == nil {
				src.mu.Lock()
				stored, _ := src.data.get(key)
				value = append([]byte(nil), stored...)
				src.mu.Unlock()
			}
			p := healPush{key: key, value: value, src: src.name, dst: target.name}
			flat = append(flat, p)
			pk := healPair{src: src.name, dst: target.name}
			if _, ok := planned[pk]; !ok {
				pairOrder = append(pairOrder, pk)
			}
			planned[pk] = append(planned[pk], p)
		}
	}
	if d.perKeyHeal {
		// One store RPC per copy, in key-major order; a drop leaves the
		// key for the next pass rather than failing the whole heal.
		for _, p := range flat {
			ptr := &simnet.Trace{}
			psp := sp.Child("repair")
			psp.Tag("key", p.key)
			psp.Tag("to", string(p.dst))
			_, err := d.net.RPC(ptr, p.src, p.dst, simnet.Message{
				Kind:    kindStore,
				Payload: &storeReq{Key: p.key, Top: keyTop(p.key), Value: p.value},
				Size:    len(p.key) + len(p.value),
			})
			tr.Add(ptr)
			psp.AddLatency(ptr.Latency)
			psp.End(spanOutcome(err))
			if err == nil {
				report.Repaired++
			} else {
				failed[p.key] = true
			}
		}
		pairOrder = nil
	}
	for _, pk := range pairOrder {
		pushes := planned[pk]
		req := &storeBatchReq{
			Keys:   make([]string, len(pushes)),
			Tops:   make([]uint32, len(pushes)),
			Values: make([][]byte, len(pushes)),
		}
		size := batchEnvelopeOverhead
		for i, p := range pushes {
			req.Keys[i] = p.key
			req.Tops[i] = keyTop(p.key)
			req.Values[i] = p.value
			size += len(p.key) + len(p.value) + batchItemOverhead
		}
		ptr := &simnet.Trace{}
		psp := sp.Child("repair")
		psp.Tag("to", string(pk.dst))
		psp.Tag("keys", fmt.Sprintf("%d", len(pushes)))
		_, err := d.net.RPC(ptr, pk.src, pk.dst, simnet.Message{
			Kind:    kindStoreBatch,
			Payload: req,
			Size:    size,
		})
		tr.Add(ptr)
		psp.AddLatency(ptr.Latency)
		psp.End(spanOutcome(err))
		if err == nil {
			report.Repaired += len(pushes)
		} else {
			// A dropped envelope leaves its keys for the next pass.
			for _, p := range pushes {
				failed[p.key] = true
			}
		}
	}
	for _, key := range keys {
		if failed[key] {
			report.Unrepairable++
		}
	}
	report.Stats = *tr
	if report.Repaired > 0 {
		// Copies moved: memoized routes may predate the repaired layout.
		d.bumpRoutes()
	}
	return report, nil
}

// healOutcome is everything a heal schedule leaves observable.
type healOutcome struct {
	reports []overlay.HealReport
	totals  simnet.Trace
	stores  map[simnet.NodeID]map[string]string
}

// checkStoredTops fails unless every record on the ring is filed under its
// key's ring-id top bits. tops memoises keyTop across a schedule.
func checkStoredTops(t *testing.T, what string, d *DHT, tops map[string]uint32) {
	t.Helper()
	for name, n := range d.view().names {
		n.mu.Lock()
		n.data.each(func(key string, top uint32, _ []byte) {
			want, ok := tops[key]
			if !ok {
				want = keyTop(key)
				tops[key] = want
			}
			if top != want {
				t.Errorf("%s: %s files %s under ring-id top %#x, want %#x", what, name, key, top, want)
			}
		})
		n.mu.Unlock()
	}
	if t.Failed() {
		t.FailNow()
	}
}

// runHealSchedule builds a ring from seed, drives a seeded random schedule
// of faults and writes over it, and runs heal at the schedule's heal points.
// Every choice comes from the schedule's own RNG and the names it tracks,
// never from the world's state, so two runs with different heal functions
// see the same schedule for as long as they behave the same. After every
// step each record must still carry its key's ring-id top bits, through
// writes, overwrites, deletes, crash resets, Join and Leave transfers and
// heal pushes.
func runHealSchedule(t *testing.T, seed int64, heal func(*DHT) (overlay.HealReport, error)) healOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(simnet.Config{Seed: seed, BaseLatency: time.Millisecond, JitterLatency: 5 * time.Millisecond})
	names := make([]simnet.NodeID, 4+rng.Intn(20))
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{
		ReplicationFactor: 1 + rng.Intn(4),
		PerKeyHeal:        rng.Intn(2) == 0,
		RouteCache:        cache.Config{Capacity: rng.Intn(2) * 16, Shards: 2, Seed: seed},
	})
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	var out healOutcome
	pick := func() simnet.NodeID { return names[rng.Intn(len(names))] }
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(48)) }
	value := func() []byte {
		v := make([]byte, rng.Intn(24))
		rng.Read(v)
		return v
	}
	store := func(n *node, key string, v []byte) {
		n.mu.Lock()
		if v == nil {
			n.data.del(key)
		} else {
			n.data.put(key, keyTop(key), v)
		}
		n.mu.Unlock()
	}
	joined := 0
	tops := make(map[string]uint32)
	for step, steps := 0, 40+rng.Intn(40); step < steps; step++ {
		// Errors from faulted operations are part of the schedule: a store
		// through an offline origin fails the same way in both runs.
		switch op := rng.Intn(100); {
		case op < 40: // store or overwrite through routing
			_, _ = d.Store(string(pick()), key(), value())
		case op < 48: // offline / online flip
			_ = net.SetOnline(pick(), rng.Intn(3) > 0)
		case op < 52: // crash-restart: the node comes back empty
			victim := pick()
			_ = net.Crash(victim)
			_ = net.SetOnline(victim, true)
		case op < 56: // partition flip
			_ = net.SetPartition(pick(), rng.Intn(2))
		case op < 59:
			joined++
			name := simnet.NodeID(fmt.Sprintf("joiner-%d", joined))
			if err := d.Join(name); err != nil {
				t.Fatalf("seed %d: Join: %v", seed, err)
			}
			names = append(names, name)
		case op < 62:
			if len(names) > 2 {
				i := rng.Intn(len(names))
				if err := d.Leave(names[i]); err != nil {
					t.Fatalf("seed %d: Leave: %v", seed, err)
				}
				names = append(names[:i], names[i+1:]...)
			}
		case op < 66: // placement filter on a seeded subset, or off
			if rng.Intn(3) == 0 {
				d.SetPlacementFilter(nil)
			} else {
				salt := rng.Uint64()
				d.SetPlacementFilter(func(node string) bool { return (hashID(node)^salt)%4 != 0 })
			}
		case op < 72: // stale extension copy on an arbitrary node
			n := d.view().names[pick()]
			store(n, key(), value())
		case op < 76: // a key no live target holds: only strays keep it
			k := key()
			targets := d.liveTargets(hashID(k), d.replica)
			stray := d.view().names[pick()]
			for _, target := range targets {
				store(target, k, nil)
			}
			store(stray, k, value())
		case op < 79: // fewer online nodes than k
			keep := rng.Intn(3)
			for i, name := range names {
				_ = net.SetOnline(name, i < keep)
			}
		case op < 82: // everyone back
			for _, name := range names {
				_ = net.SetOnline(name, true)
				_ = net.SetPartition(name, 0)
			}
		case op < 86: // lossy pushes on / off
			net.SetLossRate(float64(rng.Intn(2)) * 0.3)
		default:
			report, err := heal(d)
			if err != nil {
				t.Fatalf("seed %d: heal: %v", seed, err)
			}
			out.reports = append(out.reports, report)
		}
		checkStoredTops(t, fmt.Sprintf("seed %d step %d", seed, step), d, tops)
	}
	report, err := heal(d)
	if err != nil {
		t.Fatalf("seed %d: heal: %v", seed, err)
	}
	checkStoredTops(t, fmt.Sprintf("seed %d last heal", seed), d, tops)
	out.reports = append(out.reports, report)
	out.totals = net.Totals()
	out.stores = make(map[simnet.NodeID]map[string]string)
	for name, n := range d.view().names {
		n.mu.Lock()
		out.stores[name] = make(map[string]string, n.data.len())
		n.data.each(func(k string, _ uint32, v []byte) { out.stores[name][k] = string(v) })
		n.mu.Unlock()
	}
	return out
}

func TestHealMatchesReferenceModel(t *testing.T) {
	// The probe-based scan must be indistinguishable from the global-map
	// pass it replaced: same report, same RPCs in the same order (so the
	// same loss and jitter draws, hence identical network totals) and the
	// same bytes on every node — at any scan parallelism.
	reference := func(d *DHT) (overlay.HealReport, error) { return referenceHeal(d, nil) }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for seed := int64(1); seed <= 240; seed++ {
			want := runHealSchedule(t, seed, reference)
			got := runHealSchedule(t, seed, (*DHT).Heal)
			if !reflect.DeepEqual(got.reports, want.reports) {
				t.Fatalf("GOMAXPROCS %d seed %d: reports differ\n got %+v\nwant %+v", procs, seed, got.reports, want.reports)
			}
			if got.totals != want.totals {
				t.Fatalf("GOMAXPROCS %d seed %d: network totals differ: got %+v want %+v", procs, seed, got.totals, want.totals)
			}
			if !reflect.DeepEqual(got.stores, want.stores) {
				t.Fatalf("GOMAXPROCS %d seed %d: node stores differ", procs, seed)
			}
		}
	}
}

func TestHealWithNothingToRepairAllocatesPerRingNotPerKey(t *testing.T) {
	// A pass that finds every key fully replicated builds the ring view,
	// the per-node scan results and its memo and nothing else: no global
	// map, no key list, no per-key set. The full arm forgets the memo
	// first, so every copy is probed; the unchanged arm keeps it, so none
	// is. Both allocate the same, at any key count.
	for _, arm := range []struct {
		name   string
		forget bool
	}{{"full", true}, {"unchanged", false}} {
		var allocs [2]float64
		for i, keys := range []int{500, 4000} {
			d, _ := healRing(t, keys)
			if _, err := d.Heal(); err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(5, func() {
				if arm.forget {
					forgetHealMemo(d)
				}
				if report, err := d.Heal(); err != nil || report.KeysScanned != keys || report.Repaired != 0 {
					t.Fatalf("%s heal over %d healthy keys: %+v %v", arm.name, keys, report, err)
				}
			})
		}
		if allocs[0] != allocs[1] || allocs[0] > 32 {
			t.Fatalf("%s healthy heal allocates %v at 500 keys and %v at 4000, want equal and <= 32", arm.name, allocs[0], allocs[1])
		}
		t.Logf("%s: %v allocations", arm.name, allocs[0])
	}
}

// forgetHealMemo drops d's heal memo, so the next pass probes every copy.
func forgetHealMemo(d *DHT) {
	d.mu.Lock()
	d.healMemo = nil
	d.mu.Unlock()
}

// returningRing is healRing with BenchmarkHeal's returning=3 shape: three
// nodes each miss every sixth key they should hold. Here the sixths are
// taken per ring segment, starting at each segment's first key, so every
// segment a returning node serves misses a key at any ring size: the pass
// has the same holders, checkers and (holder, target) pairs at 10 000 keys
// as at 100 000. It returns the returning nodes and the copies they miss.
func returningRing(tb testing.TB, keys int) (*DHT, []simnet.NodeID, int) {
	tb.Helper()
	d, names := healRing(tb, keys)
	v := d.view()
	returning := []simnet.NodeID{names[7], names[19], names[31]}
	missed := 0
	for _, name := range returning {
		n := v.names[name]
		bySegment := make(map[int][]string)
		n.data.each(func(key string, _ uint32, _ []byte) {
			seg := v.segmentOf(hashID(key))
			bySegment[seg] = append(bySegment[seg], key)
		})
		for _, held := range bySegment {
			sort.Strings(held)
			for j := 0; j < len(held); j += 6 {
				n.data.del(held[j])
				missed++
			}
		}
	}
	return d, returning, missed
}

func TestHealWithReturningNodesAllocatesPerRingNotPerKey(t *testing.T) {
	// A pass that plans and sends repairs allocates per node and per
	// (holder, target) pair, never per key: its marks, plan and envelopes
	// are sized before they are filled. The returning nodes sit behind a
	// partition, so every envelope is planned, filled and sent but none
	// lands, and each run repeats the same pass: what is counted is the
	// heal's own work, not the receiving logs' growth by the bytes they
	// would take in.
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	var allocs [2]float64
	for i, keys := range []int{10_000, 100_000} {
		d, returning, missed := returningRing(t, keys)
		for _, name := range returning {
			if err := d.net.SetPartition(name, 1); err != nil {
				t.Fatal(err)
			}
		}
		// Collect the set-up's garbage first: a collection during the runs
		// would empty the frame pool and charge a fresh frame to the pass.
		runtime.GC()
		allocs[i] = testing.AllocsPerRun(5, func() {
			if report, err := d.Heal(); err != nil || report.KeysScanned != keys || report.Unrepairable != missed {
				t.Fatalf("heal over %d keys, %d copies missing: %+v %v", keys, missed, report, err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("returning=3 heal allocates %v at 10 000 keys and %v at 100 000, want equal", allocs[0], allocs[1])
	}
}

func TestHealConcurrentWithStores(t *testing.T) {
	// Heal freezes the online stores while other goroutines write through
	// the same nodes: the pass must neither race nor deadlock with them.
	// Every other round crashes a node first, so passes alternate between
	// full scans and scans that skip on the last clean pass's word; once
	// the writers stop and the ring is whole, a pass on the memo's word
	// reports what a full one does.
	d, net, names := buildDHT(t, 12, Config{ReplicationFactor: 3})
	stop := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%d", w, i%64)
				_, _ = d.Store(string(names[w]), key, []byte(key))
				_, _, _ = d.Lookup(string(names[w]), key)
			}
		}(w)
	}
	for round := 0; round < 40; round++ {
		if round%2 == 0 {
			victim := names[2+round/2%10]
			_ = net.Crash(victim)
			_ = net.SetOnline(victim, true)
		}
		if _, err := d.Heal(); err != nil {
			t.Errorf("Heal: %v", err)
		}
	}
	close(stop)
	<-done
	<-done
	if _, err := d.Heal(); err != nil {
		t.Fatal(err)
	}
	memo, err := d.Heal()
	if err != nil {
		t.Fatal(err)
	}
	forgetHealMemo(d)
	full, err := d.Heal()
	if err != nil || memo != full || full.Repaired != 0 {
		t.Fatalf("after the writers: memo pass %+v, full pass %+v (%v); want equal, nothing repaired", memo, full, err)
	}
}
