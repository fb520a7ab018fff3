package dht

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/simnet"
	"godosn/internal/telemetry"
)

func batchKeys(n int) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch-key-%03d", i)
		vals[i] = []byte(fmt.Sprintf("batch-value-%03d", i))
	}
	return keys, vals
}

// The batch path must be a pure transport optimization: same values land,
// same values come back, and the counted stats are byte-identical at any
// FanoutWorkers setting (the batch cost model is worker-independent).
func TestBatchMatchesSequentialAcrossWorkers(t *testing.T) {
	keys, vals := batchKeys(96)
	var prevPut, prevGet overlay.OpStats
	var prevSingle []overlay.OpStats
	for wi, workers := range []int{1, 8} {
		d, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3, FanoutWorkers: workers})
		client := string(names[0])
		// Single-key Store/Lookup contact replicas one after another at any
		// FanoutWorkers, so their stats agree in every field, Latency
		// included. They run before the batch calls, whose concurrent
		// groups reorder the jitter draws.
		var single []overlay.OpStats
		for i := 0; i < 16; i++ {
			key := fmt.Sprintf("single-key-%03d", i)
			st, err := d.Store(client, key, []byte(key))
			if err != nil {
				t.Fatalf("Store(%s): %v", key, err)
			}
			single = append(single, st)
			v, st, err := d.Lookup(client, key)
			if err != nil || string(v) != key {
				t.Fatalf("Lookup(%s) = %q, %v", key, v, err)
			}
			single = append(single, st)
		}
		if wi > 0 && !reflect.DeepEqual(single, prevSingle) {
			t.Fatalf("single-key stats differ across workers:\n%+v\nvs\n%+v", single, prevSingle)
		}
		prevSingle = single
		errs, putSt, err := d.PutBatch(client, keys, vals)
		if err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("PutBatch key %s: %v", keys[i], e)
			}
		}
		// Each key must be readable through the plain single-key path.
		for i, key := range keys {
			v, _, err := d.Lookup(client, key)
			if err != nil {
				t.Fatalf("Lookup(%s): %v", key, err)
			}
			if !bytes.Equal(v, vals[i]) {
				t.Fatalf("Lookup(%s) = %q, want %q", key, v, vals[i])
			}
		}
		results, getSt, err := d.GetBatch(client, keys)
		if err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("GetBatch key %s: %v", keys[i], r.Err)
			}
			if !bytes.Equal(r.Value, vals[i]) {
				t.Fatalf("GetBatch key %s = %q, want %q", keys[i], r.Value, vals[i])
			}
		}
		// Latency draws from the simnet jitter stream, whose consumption
		// order legitimately shifts with worker scheduling; the counted
		// costs (hops, messages, bytes) must not.
		putSt.Latency, getSt.Latency = 0, 0
		if wi > 0 {
			if putSt != prevPut {
				t.Fatalf("PutBatch stats differ across workers: %+v vs %+v", putSt, prevPut)
			}
			if getSt != prevGet {
				t.Fatalf("GetBatch stats differ across workers: %+v vs %+v", getSt, prevGet)
			}
		}
		prevPut, prevGet = putSt, getSt
	}
}

// Route-grouped envelopes must beat the key-by-key loop by a wide margin:
// a put batch pays per destination node and a get batch per replica group,
// the loop pays per key.
func TestBatchCheaperThanSequential(t *testing.T) {
	keys, vals := batchKeys(128)
	seqD, _, seqNames := buildDHT(t, 48, Config{ReplicationFactor: 3})
	batD, _, batNames := buildDHT(t, 48, Config{ReplicationFactor: 3})

	var seqPut overlay.OpStats
	for i, key := range keys {
		st, err := seqD.Store(string(seqNames[0]), key, vals[i])
		if err != nil {
			t.Fatalf("Store(%s): %v", key, err)
		}
		seqPut.Add(&st)
	}
	_, batPut, err := batD.PutBatch(string(batNames[0]), keys, vals)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if seqPut.Messages < 3*batPut.Messages {
		t.Fatalf("PutBatch saved only %.2fx messages (seq %d, batch %d), want >= 3x",
			float64(seqPut.Messages)/float64(batPut.Messages), seqPut.Messages, batPut.Messages)
	}

	var seqGet overlay.OpStats
	for _, key := range keys {
		_, st, err := seqD.Lookup(string(seqNames[1]), key)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", key, err)
		}
		seqGet.Add(&st)
	}
	_, batGet, err := batD.GetBatch(string(batNames[1]), keys)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	if seqGet.Messages < 3*batGet.Messages {
		t.Fatalf("GetBatch saved only %.2fx messages (seq %d, batch %d), want >= 3x",
			float64(seqGet.Messages)/float64(batGet.Messages), seqGet.Messages, batGet.Messages)
	}
}

// A missing key is a per-slot miss, never a batch failure.
func TestBatchMissingKeyIsolation(t *testing.T) {
	keys, vals := batchKeys(32)
	d, _, names := buildDHT(t, 32, Config{ReplicationFactor: 3})
	client := string(names[0])
	if _, _, err := d.PutBatch(client, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	probe := append(append([]string(nil), keys[:16]...), "never-stored-a", "never-stored-b")
	probe = append(probe, keys[16:]...)
	results, _, err := d.GetBatch(client, probe)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, r := range results {
		switch probe[i] {
		case "never-stored-a", "never-stored-b":
			if !errors.Is(r.Err, overlay.ErrNotFound) {
				t.Fatalf("missing key %s: err = %v, want ErrNotFound", probe[i], r.Err)
			}
		default:
			if r.Err != nil {
				t.Fatalf("stored key %s failed beside misses: %v", probe[i], r.Err)
			}
		}
	}
}

// Taking one key's whole replica set offline must fail exactly the keys
// owned by that replica set; every key with a reachable replica resolves.
func TestBatchOfflineReplicaSetIsolation(t *testing.T) {
	keys, vals := batchKeys(64)
	d, net, names := buildDHT(t, 48, Config{
		ReplicationFactor: 3,
		RouteCache:        cache.Config{Capacity: 256, Shards: 1, Seed: 7},
	})
	client := string(names[0])
	if _, _, err := d.PutBatch(client, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	replicaSet := func(key string) string {
		reps, _, err := d.ReplicasFor(client, key)
		if err != nil {
			t.Fatalf("ReplicasFor(%s): %v", key, err)
		}
		sorted := append([]string(nil), reps...)
		sort.Strings(sorted)
		return fmt.Sprint(sorted)
	}
	victim := keys[5]
	victimSet := replicaSet(victim)
	expectFail := map[string]bool{}
	for _, key := range keys {
		expectFail[key] = replicaSet(key) == victimSet
	}
	victimReplicas, _, err := d.ReplicasFor(client, victim)
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	for _, name := range victimReplicas {
		if name == client {
			t.Skip("client is a victim replica at this seed; offline client cannot originate")
		}
		if err := net.SetOnline(simnet.NodeID(name), false); err != nil {
			t.Fatalf("SetOnline: %v", err)
		}
	}
	results, _, err := d.GetBatch(client, keys)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	failed := 0
	for i, r := range results {
		if expectFail[keys[i]] {
			failed++
			if r.Err == nil {
				t.Fatalf("key %s owned by the offline replica set returned a value", keys[i])
			}
			if errors.Is(r.Err, overlay.ErrNotFound) {
				t.Fatalf("key %s reported a definitive miss for a delivery failure: %v", keys[i], r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("key %s with reachable replicas failed: %v", keys[i], r.Err)
		}
		if !bytes.Equal(r.Value, vals[i]) {
			t.Fatalf("key %s = %q, want %q", keys[i], r.Value, vals[i])
		}
	}
	if failed == 0 {
		t.Fatal("victim key set empty; isolation test proved nothing")
	}
	if failed == len(keys) {
		t.Fatal("whole batch failed; no isolation demonstrated")
	}
}

// ringOrder returns the ring's node names in ring order, so that the replica
// set of a group rooted at ring[j] is ring[j], ring[j+1], ... (wrapping).
func ringOrder(d *DHT) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(d.view().ring))
	for _, n := range d.view().members() {
		out = append(out, n.name)
	}
	return out
}

// putFaultRing is a 48-node k=3 ring for PutBatch fault cases: the victim
// group is rooted at ring[j], the root of the batch's first key, and the
// origin sits half the ring away.
type putFaultRing struct {
	d      *DHT
	net    *simnet.Network
	ring   []simnet.NodeID
	j      int
	origin string
	// afterStore, once set, runs when a node has applied a store_batch and
	// before its reply leg.
	afterStore atomic.Pointer[func(node simnet.NodeID)]
}

func newPutFaultRing(t *testing.T, workers int, keys []string, vals [][]byte) *putFaultRing {
	d, _, _ := buildDHT(t, 48, Config{ReplicationFactor: 3, FanoutWorkers: workers})
	r := &putFaultRing{d: d, net: simnet.New(simnet.DefaultConfig(1)), ring: ringOrder(d)}
	r.j = slices.Index(r.ring, replicaNames(d, keys[0])[0])
	r.origin = string(r.ring[(r.j+len(r.ring)/2)%len(r.ring)])
	for _, n := range d.view().members() {
		inner, name := d.handlerFor(n), n.name
		h := func(tr *simnet.Trace, from simnet.NodeID, msg simnet.Message) (simnet.Message, error) {
			reply, err := inner(tr, from, msg)
			if hook := r.afterStore.Load(); hook != nil && msg.Kind == kindStoreBatch {
				(*hook)(name)
			}
			return reply, err
		}
		if err := r.net.Register(name, simnet.HandlerFunc(h)); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	d.net = r.net
	r.warm(t, keys, vals)
	return r
}

// warm writes the batch on the healthy ring, so that a write under test
// resolves every key from learned intervals, with no routing walk to cross
// a faulty node.
func (r *putFaultRing) warm(t *testing.T, keys []string, vals [][]byte) {
	t.Helper()
	errs, _, err := r.d.PutBatch(r.origin, keys, vals)
	if err != nil {
		t.Fatalf("warm PutBatch: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("warm PutBatch(%s): %v", keys[i], e)
		}
	}
}

// replica returns the victim group's i-th replica.
func (r *putFaultRing) replica(i int) simnet.NodeID { return r.ring[(r.j+i)%len(r.ring)] }

func (r *putFaultRing) offline(t *testing.T, nodes ...simnet.NodeID) {
	for _, name := range nodes {
		if err := r.net.SetOnline(name, false); err != nil {
			t.Fatalf("SetOnline: %v", err)
		}
	}
}

// rooted reports, per key, whether its group is the victim group.
func (r *putFaultRing) rooted(keys []string) []bool {
	out := make([]bool, len(keys))
	for i, key := range keys {
		out[i] = replicaNames(r.d, key)[0] == r.replica(0)
	}
	return out
}

// PutBatch sends each destination node one envelope carrying every group
// it holds, but a key's outcome stays its group's: one acknowledged replica
// writes it, a group with every replica unreachable fails with
// ErrUnavailable, and a lost reply is an ack-lost wrap only for a group no
// other replica acknowledged. A group's outcome comes from the envelopes
// its replicas were sent, even if the placement filter changes while they
// are in flight. Each case runs at one worker and at eight, where
// destinations record their outcomes concurrently.
func TestPutBatchFaultIsolation(t *testing.T) {
	keys, vals := batchKeys(256)
	newVals := make([][]byte, len(vals))
	for i := range newVals {
		newVals[i] = []byte(fmt.Sprintf("rewritten-%03d", i))
	}
	put := func(t *testing.T, r *putFaultRing) []error {
		errs, _, err := r.d.PutBatch(r.origin, keys, newVals)
		if err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		return errs
	}
	// onlyVictimUnavailable requires the victim group's keys, and only
	// those, to fail with ErrUnavailable: not a miss, not an ack-lost wrap.
	onlyVictimUnavailable := func(t *testing.T, errs []error, victim []bool) {
		failed := 0
		for i, e := range errs {
			switch {
			case victim[i]:
				failed++
				if !errors.Is(e, overlay.ErrUnavailable) || errors.Is(e, overlay.ErrNotFound) || errors.Is(e, simnet.ErrReplyLost) {
					t.Fatalf("PutBatch(%s) to an offline replica set: %v, want ErrUnavailable", keys[i], e)
				}
			case e != nil:
				t.Fatalf("PutBatch(%s) with reachable replicas: %v", keys[i], e)
			}
		}
		if failed == 0 || failed == len(keys) {
			t.Fatalf("%d of %d keys failed: no isolation shown", failed, len(keys))
		}
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Run("one replica offline", func(t *testing.T) {
				r := newPutFaultRing(t, workers, keys, vals)
				r.offline(t, r.replica(0))
				for i, e := range put(t, r) {
					if e != nil {
						t.Fatalf("PutBatch(%s) with one replica node offline: %v", keys[i], e)
					}
				}
			})
			t.Run("whole replica set offline", func(t *testing.T) {
				r := newPutFaultRing(t, workers, keys, vals)
				r.offline(t, r.replica(0), r.replica(1), r.replica(2))
				onlyVictimUnavailable(t, put(t, r), r.rooted(keys))
			})
			t.Run("filter flips mid-batch", func(t *testing.T) {
				// Once the first envelope is applied, the filter vetoes the
				// victim group's first replica, so the group's placement now
				// names a reachable node that got no envelope for it. The
				// group's replicas were all offline: it must still fail.
				r := newPutFaultRing(t, workers, keys, vals)
				var flipped atomic.Bool
				r.d.SetPlacementFilter(func(node string) bool { return !flipped.Load() || node != string(r.replica(0)) })
				r.warm(t, keys, vals) // the filter cleared the learned intervals
				r.offline(t, r.replica(0), r.replica(1), r.replica(2))
				flip := func(simnet.NodeID) { flipped.Store(true) }
				r.afterStore.Store(&flip)
				onlyVictimUnavailable(t, put(t, r), r.rooted(keys))
				if !flipped.Load() {
					t.Fatal("no store_batch was applied: the filter never flipped")
				}
			})
			t.Run("reply lost", func(t *testing.T) {
				// The victim group's first replica applies the write and is
				// then cut off before its reply leg, while the group's other
				// two replicas are offline: that group alone reports the
				// ack-lost wrap. The liar's two other groups still have an
				// acknowledged replica each.
				r := newPutFaultRing(t, workers, keys, vals)
				liar := r.replica(0)
				r.offline(t, r.replica(1), r.replica(2))
				cut := func(node simnet.NodeID) {
					if node != liar {
						return
					}
					if err := r.net.SetPartition(liar, 1); err != nil {
						t.Errorf("SetPartition: %v", err)
					}
				}
				r.afterStore.Store(&cut)
				victim := r.rooted(keys)
				lost := 0
				for i, e := range put(t, r) {
					switch {
					case victim[i]:
						lost++
						if !errors.Is(e, simnet.ErrReplyLost) || errors.Is(e, overlay.ErrUnavailable) || !strings.Contains(e.Error(), "may have been applied") {
							t.Fatalf("PutBatch(%s) with only a lost ack: %v, want the ack-lost wrap", keys[i], e)
						}
						if got, ok := r.d.StoredCopy(string(liar), keys[i]); !ok || !bytes.Equal(got, newVals[i]) {
							t.Fatalf("%s's unacked copy of %s = %q, want the applied write", liar, keys[i], got)
						}
					case e != nil:
						t.Fatalf("PutBatch(%s), a group with an acknowledged replica: %v", keys[i], e)
					}
				}
				if lost == 0 {
					t.Fatal("the victim group holds no key of the batch")
				}
			})
		})
	}
}

// A key repeated in one batch keeps last-write-wins on every replica: its
// positions share a group, and a group's keys ride each envelope in input
// order.
func TestPutBatchDuplicateKeyLastWriteWins(t *testing.T) {
	keys, vals := batchKeys(64)
	keys = append(keys, keys[7], keys[40])
	vals = append(vals, []byte("second write of 7"), []byte("second write of 40"))
	for _, workers := range []int{1, 8} {
		d, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3, FanoutWorkers: workers})
		errs, _, err := d.PutBatch(string(names[0]), keys, vals)
		if err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("PutBatch(%s): %v", keys[i], e)
			}
		}
		for _, i := range []int{64, 65} {
			for _, holder := range replicaNames(d, keys[i]) {
				if got, ok := d.StoredCopy(string(holder), keys[i]); !ok || !bytes.Equal(got, vals[i]) {
					t.Fatalf("workers=%d: %s holds %s = %q, want the last write %q", workers, holder, keys[i], got, vals[i])
				}
			}
		}
	}
}

// A batch's envelopes land where a per-key Store loop on a twin ring puts
// its copies. Without a filter every node holds exactly the keys whose
// PlanReplicas names it; under a placement veto the vetoed node receives
// none of the batch.
func TestPutBatchPlacesLikeStore(t *testing.T) {
	keys, vals := batchKeys(256)
	for _, veto := range []bool{false, true} {
		t.Run(fmt.Sprintf("veto=%v", veto), func(t *testing.T) {
			batch, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
			perKey, _, _ := buildDHT(t, 48, Config{ReplicationFactor: 3})
			origin := names[0]
			var vetoed simnet.NodeID
			if veto {
				for _, key := range keys {
					if r := replicaNames(batch, key); !slices.Contains(r, origin) {
						vetoed = r[1]
						break
					}
				}
				allow := func(node string) bool { return node != string(vetoed) }
				batch.SetPlacementFilter(allow)
				perKey.SetPlacementFilter(allow)
			}
			errs, _, err := batch.PutBatch(string(origin), keys, vals)
			if err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			for i, key := range keys {
				if errs[i] != nil {
					t.Fatalf("PutBatch(%s): %v", key, errs[i])
				}
				if _, err := perKey.Store(string(origin), key, vals[i]); err != nil {
					t.Fatalf("Store(%s): %v", key, err)
				}
			}
			held := 0
			for _, key := range keys {
				plan := batch.PlanReplicas(key)
				for _, name := range names {
					got := batch.Holds(string(name), key)
					if want := perKey.Holds(string(name), key); got != want {
						t.Fatalf("%s holds %s: %v after PutBatch, %v after per-key Store", name, key, got, want)
					}
					if want := slices.Contains(plan, string(name)); !veto && got != want {
						t.Fatalf("%s holds %s: %v, but PlanReplicas %v", name, key, got, plan)
					}
					if got && name == vetoed {
						t.Fatalf("vetoed node %s received %s", name, key)
					}
					if got {
						held++
					}
				}
			}
			if held != 3*len(keys) {
				t.Fatalf("%d copies placed, want %d", held, 3*len(keys))
			}
		})
	}
}

// referenceGroup and referenceDestinations are the plan builders the
// counting passes replaced, kept as oracles: one comparison sort of the
// routed positions by (root, position) and one of the slots by (node,
// group).
func referenceGroup(p *batchPlan) {
	for i, err := range p.errs {
		if err == nil {
			p.order = append(p.order, i)
		}
	}
	slices.SortFunc(p.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(p.roots[a], p.roots[b]), cmp.Compare(a, b))
	})
	for start := 0; start < len(p.order); {
		root := p.roots[p.order[start]]
		end := start + 1
		for end < len(p.order) && p.roots[p.order[end]] == root {
			end++
		}
		p.groups = append(p.groups, batchGroup{root: root, idxs: p.order[start:end:end]})
		start = end
	}
}

func referenceDestinations(p *batchPlan, v *ringView, k int) {
	var ids replicaIDs
	for gi := range p.groups {
		g := &p.groups[gi]
		g.acks[0] = len(p.slots)
		for _, rid := range v.placementOf(ids[:0], g.root, k) {
			p.slots = append(p.slots, destSlot{node: rid, group: gi, ack: len(p.slots)})
		}
		g.acks[1] = len(p.slots)
	}
	p.acks = make([]error, len(p.slots))
	slices.SortFunc(p.slots, func(a, b destSlot) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.group, b.group))
	})
	for start := 0; start < len(p.slots); {
		node := p.slots[start].node
		end := start + 1
		for end < len(p.slots) && p.slots[end].node == node {
			end++
		}
		p.dests = append(p.dests, batchDest{node: node, slots: p.slots[start:end:end]})
		start = end
	}
}

// The counting passes build exactly the plan the comparison sorts built, on
// seeded random rings and batches: failed positions, empty batches, batches
// where every key failed, placement vetoes, and roots that are no ring
// member (a root that left the ring under the batch), which share a ring
// bucket with a member's root or with each other. One plan is reused across
// every trial, as a pooled frame's is.
func TestBatchGroupingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	unroutable := errors.New("unroutable")
	var got batchPlan
	var ids replicaIDs
	var empty, allFailed, mixed int
	for trial := range 3000 {
		nodes := make([]*node, 1+rng.Intn(10))
		taken := make(map[uint64]*node)
		for i := range nodes {
			nodes[i] = &node{id: freeID(rng.Uint64(), taken), name: simnet.NodeID(fmt.Sprintf("node-%d", i))}
			taken[nodes[i].id] = nodes[i]
		}
		var allow func(string) bool
		if rng.Intn(3) == 0 {
			vetoed := fmt.Sprintf("node-%d", rng.Intn(len(nodes)))
			allow = func(name string) bool { return name != vetoed }
		}
		v := newRingView(nodes, 3, allow, nil)
		strays := make([]uint64, 1+rng.Intn(3))
		for i := range strays {
			strays[i] = rng.Uint64()
		}
		n := rng.Intn(40)
		failShare := []int{0, 20, 100}[rng.Intn(3)]
		want := batchPlan{}
		got.reset()
		for range n {
			root := v.ring[rng.Intn(len(v.ring))]
			if rng.Intn(4) == 0 {
				root = strays[rng.Intn(len(strays))]
			}
			var err error
			if rng.Intn(100) < failShare {
				err = unroutable
			}
			for _, p := range []*batchPlan{&got, &want} {
				p.roots, p.errs = append(p.roots, root), append(p.errs, err)
			}
		}
		got.group(v.ring)
		referenceGroup(&want)
		sameGroups := func() bool {
			return slices.EqualFunc(got.groups, want.groups, func(a, b batchGroup) bool { return reflect.DeepEqual(a, b) })
		}
		if !slices.Equal(got.order, want.order) || !sameGroups() {
			t.Fatalf("trial %d: grouped %v into %+v, the sort %v into %+v", trial, got.order, got.groups, want.order, want.groups)
		}
		got.destinations(v, 3, &ids)
		referenceDestinations(&want, v, 3)
		if !sameGroups() || !slices.Equal(got.slots, want.slots) || len(got.acks) != len(want.acks) {
			t.Fatalf("trial %d: slots %v (groups %+v), the sort %v (groups %+v)", trial, got.slots, got.groups, want.slots, want.groups)
		}
		if len(got.dests) != len(want.dests) {
			t.Fatalf("trial %d: %d destinations, the sort %d", trial, len(got.dests), len(want.dests))
		}
		for i := range want.dests {
			if g, w := got.dests[i], want.dests[i]; g.node != w.node || !slices.Equal(g.slots, w.slots) {
				t.Fatalf("trial %d: destination %d is %x %v, the sort's %x %v", trial, i, g.node, g.slots, w.node, w.slots)
			}
		}
		switch {
		case n == 0:
			empty++
		case len(want.order) == 0:
			allFailed++
		}
		for i := 1; i < len(want.groups); i++ {
			a, _ := slices.BinarySearch(v.ring, want.groups[i-1].root)
			b, _ := slices.BinarySearch(v.ring, want.groups[i].root)
			if a == b {
				mixed++
				break
			}
		}
	}
	if empty < 20 || allFailed < 200 || mixed < 200 {
		t.Fatalf("%d empty batches, %d with every key failed, %d with a bucket of two roots: the trials prove too little", empty, allFailed, mixed)
	}
	t.Logf("%d empty batches, %d with every key failed, %d with a bucket of two roots", empty, allFailed, mixed)
}

// The work counter destination envelopes move, on a fixed input: a warm
// 256-key PutBatch on a 48-node k=3 ring adds exactly one RPC per distinct
// destination node to simnet_rpcs_total (one per replica of each of its 40
// groups, 120, before writes were coalesced by destination), and no walk.
func TestPutBatchRPCsPerDestination(t *testing.T) {
	d, net, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	reg := telemetry.NewRegistry()
	net.SetTelemetry(reg)
	d.SetTelemetry(reg)
	keys, vals := batchKeys(256)
	put := func() {
		errs, _, err := d.PutBatch(string(names[0]), keys, vals)
		if err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("PutBatch(%s): %v", keys[i], e)
			}
		}
	}
	put() // cold: its walks learn the ring's intervals
	rpcs, walks := reg.Counter("simnet_rpcs_total"), reg.Counter("dht_resolve_walks_total")
	rpcsBefore, walksBefore := rpcs.Value(), walks.Value()
	put()
	dests := map[uint64]bool{}
	for _, key := range keys {
		for _, rid := range d.view().successorsOf(nil, hashID(key), d.replica) {
			dests[rid] = true
		}
	}
	const destinations = 48
	if len(dests) != destinations {
		t.Fatalf("the batch's groups have %d distinct replica nodes, want %d", len(dests), destinations)
	}
	if got := rpcs.Value() - rpcsBefore; got != destinations {
		t.Fatalf("warm PutBatch added %d to simnet_rpcs_total, want %d (one store_batch per destination node)", got, destinations)
	}
	if got := walks.Value() - walksBefore; got != 0 {
		t.Fatalf("warm PutBatch added %d to dht_resolve_walks_total, want 0", got)
	}
}

// Direct unit coverage of the learned-ownership segment cache.
func TestOwnershipCacheUnit(t *testing.T) {
	var c ownershipCache
	if _, ok := c.lookup(10); ok {
		t.Fatal("empty cache answered a lookup")
	}
	// learn(150, 100, 200): a walk for kid 150 ended at root 200 on node
	// 100's answer, so 200 owns (100, 200] — but not 100 itself.
	c.learn(150, 100, 200, c.fence())
	for _, kid := range []uint64{101, 150, 200} {
		if root, ok := c.lookup(kid); !ok || root != 200 {
			t.Fatalf("lookup(%d) = %d,%v, want 200,true", kid, root, ok)
		}
	}
	for _, kid := range []uint64{100, 201} {
		if _, ok := c.lookup(kid); ok {
			t.Fatalf("lookup(%d) hit outside the learned segment", kid)
		}
	}
	// lo == root would claim the whole ring; it must be skipped.
	c.learn(250, 300, 300, c.fence())
	if _, ok := c.lookup(250); ok {
		t.Fatal("degenerate (root, root] segment claimed the ring")
	}
	// Wrap-around: a kid past every learned root tries the first root
	// circularly, and hits when that root's segment wraps past zero.
	if _, ok := c.lookup(4000); ok {
		t.Fatal("wrap-around lookup hit outside the learned segment")
	}
	top := ^uint64(0) - 10
	c.learn(top+5, top, 50, c.fence())
	for _, kid := range []uint64{top + 1, ^uint64(0), 0, 50} {
		if root, ok := c.lookup(kid); !ok || root != 50 {
			t.Fatalf("wrapping segment: lookup(%d) = %d,%v, want 50,true", kid, root, ok)
		}
	}
	if root, ok := c.lookup(150); !ok || root != 200 {
		t.Fatalf("second root hid the first: lookup(150) = %d,%v", root, ok)
	}
	c.clear()
	if _, ok := c.lookup(150); ok {
		t.Fatal("cleared cache answered a lookup")
	}
}

// Intervals learned by one batch must pay off in the next: the same probe
// batch costs strictly less on a DHT that already ran an unrelated batch,
// and the whole difference is routing (the replica probes are identical).
func TestOwnershipAmortizesRoutingAcrossBatches(t *testing.T) {
	warm, _, warmNames := buildDHT(t, 48, Config{ReplicationFactor: 3})
	fresh, _, freshNames := buildDHT(t, 48, Config{ReplicationFactor: 3})
	first := make([]string, 128)
	probe := make([]string, 128)
	vals := make([][]byte, 128)
	for i := range first {
		first[i] = fmt.Sprintf("wave1-%03d", i)
		probe[i] = fmt.Sprintf("wave2-%03d", i)
		vals[i] = []byte("v")
	}
	// Teach the warm DHT ownership intervals with an unrelated key wave.
	if _, _, err := warm.PutBatch(string(warmNames[0]), first, vals); err != nil {
		t.Fatalf("PutBatch wave1: %v", err)
	}
	// Same probe batch on both rings: every key misses everywhere, so the
	// per-group replica probes cost exactly the same; only routing differs.
	_, warmSt, err := warm.GetBatch(string(warmNames[0]), probe)
	if err != nil {
		t.Fatalf("GetBatch warm: %v", err)
	}
	_, freshSt, err := fresh.GetBatch(string(freshNames[0]), probe)
	if err != nil {
		t.Fatalf("GetBatch fresh: %v", err)
	}
	saved := freshSt.Messages - warmSt.Messages
	if saved <= 0 {
		t.Fatalf("warm batch spent %d messages vs fresh %d; learned intervals amortized nothing", warmSt.Messages, freshSt.Messages)
	}
	// Miss-probes (identical on both rings) dominate the total, so the
	// routing saving shows up as a modest slice of the whole batch.
	if saved*7 < freshSt.Messages {
		t.Fatalf("learned intervals saved only %d of %d messages (want >= ~15%%)", saved, freshSt.Messages)
	}
}

// Ring mutations must invalidate learned intervals along with the route
// cache, and batches must stay correct afterwards.
func TestOwnershipInvalidatedOnMembershipChange(t *testing.T) {
	keys, vals := batchKeys(64)
	d, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	client := string(names[0])
	if _, _, err := d.PutBatch(client, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	learned := len(learnedSegments(&d.ownership))
	if learned == 0 {
		t.Fatal("batch routing learned no intervals")
	}
	leaver := names[len(names)-1]
	if string(leaver) == client {
		leaver = names[len(names)-2]
	}
	if err := d.Leave(leaver); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	learned = len(learnedSegments(&d.ownership))
	if learned != 0 {
		t.Fatalf("%d learned intervals survived a ring change", learned)
	}
	results, _, err := d.GetBatch(client, keys)
	if err != nil {
		t.Fatalf("GetBatch after Leave: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("key %s after Leave: %v", keys[i], r.Err)
		}
		if !bytes.Equal(r.Value, vals[i]) {
			t.Fatalf("key %s after Leave = %q, want %q", keys[i], r.Value, vals[i])
		}
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// A batch borrows one frame for its plan and one per destination node
// (PutBatch) or replica group (GetBatch) for its envelopes and replica ids,
// so it allocates per batch, not per envelope or key. What PutBatch allocates is the caller's error slice, the fan-out's
// closures and the chunks the replicas' record logs fill as keys are
// overwritten; GetBatch adds its results and one value arena per probe, since
// the values leave the DHT.
func TestBatchOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	d, _, names := buildDHT(t, 48, Config{ReplicationFactor: 3})
	origin := string(names[0])
	keys, vals := batchKeys(256)
	roots, dests := map[uint64]bool{}, map[uint64]bool{}
	for _, key := range keys {
		replicas := d.view().successorsOf(nil, hashID(key), d.replica)
		roots[replicas[0]] = true
		for _, rid := range replicas {
			dests[rid] = true
		}
	}
	if len(roots) < 32 {
		t.Fatalf("the batch touches %d groups: too few to tell per-batch from per-group", len(roots))
	}
	// The first batch walks to every root; the ownership cache answers every
	// later one, so what is measured is the data plane alone.
	if _, _, err := d.PutBatch(origin, keys, vals); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if errs, st, err := d.PutBatch(origin, keys, vals); err != nil || st.Messages != 2*len(dests) {
		t.Fatalf("warm PutBatch: %v, %d messages, want %d (one envelope to each of the %d destination nodes of %d groups)", err, st.Messages, 2*len(dests), len(dests), len(roots))
	} else {
		for i, e := range errs {
			if e != nil {
				t.Fatalf("PutBatch(%s): %v", keys[i], e)
			}
		}
	}
	if got := testing.AllocsPerRun(20, func() { _, _, _ = d.PutBatch(origin, keys, vals) }); got > 16 {
		t.Errorf("PutBatch of %d keys in %d groups: %v allocs, want <= 16", len(keys), len(roots), got)
	}
	_, st, err := d.GetBatch(origin, keys)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	probes := st.Messages / 2
	if got, limit := testing.AllocsPerRun(20, func() { _, _, _ = d.GetBatch(origin, keys) }), float64(4*probes+8); got > limit {
		t.Errorf("GetBatch of %d keys in %d probes: %v allocs, want <= %v", len(keys), probes, got, limit)
	}
}

// Each group's frame is emptied and lent to the next group, batch and
// worker. Nothing a later round writes into a frame may reach the bytes an
// earlier round stored or returned, and a replaying replica must serve the
// reply it recorded, not whatever the frame it was written into holds now.
func TestBatchFrameReuseNeverReachesStoredOrReturnedBytes(t *testing.T) {
	value := func(r, i int) []byte { return []byte(fmt.Sprintf("value %02d written in round %d", i, r)) }
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d, net, names := buildDHT(t, 24, Config{ReplicationFactor: 3, FanoutWorkers: workers})
			client := string(names[0])
			rootOf := func(key string) simnet.NodeID { return replicaNames(d, key)[0] }
			// Round two's keys are new, but as many of them are rooted at the
			// replayer as in round one: its recorded reply then has the shape
			// of the honest one, and only its bytes tell them apart.
			keys1, vals1 := make([]string, 64), make([][]byte, 64)
			for i := range keys1 {
				keys1[i], vals1[i] = fmt.Sprintf("round-1-key-%02d", i), value(1, i)
			}
			liar := rootOf(keys1[0])
			atLiar := 0
			for _, key := range keys1 {
				if rootOf(key) == liar {
					atLiar++
				}
			}
			var keys2 []string
			var vals2 [][]byte
			for c, want := 0, [2]int{len(keys1) - atLiar, atLiar}; len(keys2) < len(keys1); c++ {
				key := fmt.Sprintf("round-2-key-%02d", c)
				at := 0
				if rootOf(key) == liar {
					at = 1
				}
				if want[at] > 0 {
					want[at]--
					keys2, vals2 = append(keys2, key), append(vals2, value(2, c))
				}
			}
			// Teach the ownership cache both rounds' roots first, so no routing
			// walk crosses the replayer: only its data-plane replies lie.
			if _, _, err := d.GetBatch(client, append(append([]string(nil), keys1...), keys2...)); err != nil {
				t.Fatalf("warm-up GetBatch: %v", err)
			}
			if err := net.SetByzantine(liar, simnet.ByzantineConfig{Mode: simnet.ByzReplay, Rate: 1}); err != nil {
				t.Fatalf("SetByzantine: %v", err)
			}
			put := func(keys []string, vals [][]byte) {
				errs, _, err := d.PutBatch(client, keys, vals)
				if err != nil {
					t.Fatalf("PutBatch: %v", err)
				}
				for i, e := range errs {
					if e != nil {
						t.Fatalf("PutBatch(%s): %v", keys[i], e)
					}
				}
			}
			get := func(keys []string) []overlay.BatchResult {
				res, _, err := d.GetBatch(client, keys)
				if err != nil {
					t.Fatalf("GetBatch: %v", err)
				}
				return res
			}

			// Round one: the replayer has recorded nothing yet, so it answers
			// its one fetch_batch honestly.
			put(keys1, vals1)
			res1 := get(keys1)
			for i, r := range res1 {
				if r.Err != nil || !bytes.Equal(r.Value, vals1[i]) {
					t.Fatalf("round 1: GetBatch(%s) = %q, %v", keys1[i], r.Value, r.Err)
				}
			}

			// Round two reuses every frame. The replayer serves round one's
			// recorded reply in place of the honest one, so its keys read
			// round one's values.
			put(keys2, vals2)
			res2 := get(keys2)
			if got := net.CorruptedReplies(); got != 1 {
				t.Fatalf("CorruptedReplies = %d, want 1: the replayer's record of round 1 reads as round 2's reply", got)
			}
			replayed := 0
			for i, r := range res2 {
				switch {
				case r.Err == nil && bytes.Equal(r.Value, vals2[i]):
				case r.Err == nil && rootOf(keys2[i]) == liar && slices.ContainsFunc(vals1, func(v []byte) bool { return bytes.Equal(r.Value, v) }):
					replayed++
				default:
					t.Fatalf("round 2: GetBatch(%s) = %q, %v: neither its value nor a replayed one", keys2[i], r.Value, r.Err)
				}
			}
			if replayed != atLiar {
				t.Fatalf("%d of the replayer's %d keys read a replayed value", replayed, atLiar)
			}

			for i, key := range keys1 {
				if !bytes.Equal(res1[i].Value, vals1[i]) {
					t.Fatalf("round 2 changed the value round 1 returned for %s to %q", key, res1[i].Value)
				}
				for _, holder := range replicaNames(d, key) {
					if stored, ok := d.StoredCopy(string(holder), key); !ok || !bytes.Equal(stored, vals1[i]) {
						t.Fatalf("round 2 changed %s's stored copy of %s to %q", holder, key, stored)
					}
				}
			}
		})
	}
}

const benchBatch = 256

func newBatchBenchDHT(b *testing.B, nodes int) (*DHT, string) {
	b.Helper()
	net := simnet.New(simnet.DefaultConfig(4242))
	names := make([]simnet.NodeID, nodes)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := New(net, names, Config{
		ReplicationFactor: benchReplicas,
		RouteCache:        cache.Config{Capacity: 4096, Shards: 1, Seed: 4242},
	})
	if err != nil {
		b.Fatal(err)
	}
	return d, string(names[0])
}

// freshPrefill is how many keys the fresh arm of BenchmarkPutBatch writes
// before it starts the clock: stream-batched's population on its 48 nodes.
// At k=3 that is about 65 000 records a store, whose indexes (1 MiB each),
// references and logs, some 200 MB in all, lie far past a core's L2 and
// past what the last-level cache keeps of any one store between batches.
const freshPrefill = 1 << 20

// One iteration moves benchBatch keys, so ns/op and allocs/op compare the
// batched envelope path against the equivalent single-key loop directly.
// The sequential and batched arms rewrite the same keys into stores that
// stay cache-resident, behind a warm route cache: the delta is pure
// transport. The fresh arm writes new keys into stores pre-filled with
// freshPrefill keys, stream-batched's regime, where each insert's index
// probe misses the cache.
func BenchmarkPutBatch(b *testing.B) {
	keys, vals := batchKeys(benchBatch)
	b.Run("sequential", func(b *testing.B) {
		d, client := newBatchBenchDHT(b, benchNodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, key := range keys {
				if _, err := d.Store(client, key, vals[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		d, client := newBatchBenchDHT(b, benchNodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.PutBatch(client, keys, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
	var fresh *DHT // filled once, shared by every round of the fresh arm
	var client string
	next, fkeys := 0, make([]string, benchBatch)
	freshKeys := func() []string {
		for j := range fkeys {
			fkeys[j] = fmt.Sprintf("fresh-key-%08d", next)
			next++
		}
		return fkeys
	}
	b.Run("fresh", func(b *testing.B) {
		if fresh == nil {
			fresh, client = newBatchBenchDHT(b, 48)
			for next < freshPrefill {
				if _, _, err := fresh.PutBatch(client, freshKeys(), vals); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			freshKeys()
			b.StartTimer()
			if _, _, err := fresh.PutBatch(client, fkeys, vals); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGetBatch(b *testing.B) {
	keys, vals := batchKeys(benchBatch)
	b.Run("sequential", func(b *testing.B) {
		d, client := newBatchBenchDHT(b, benchNodes)
		if _, _, err := d.PutBatch(client, keys, vals); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, key := range keys {
				if _, _, err := d.Lookup(client, key); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		d, client := newBatchBenchDHT(b, benchNodes)
		if _, _, err := d.PutBatch(client, keys, vals); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.GetBatch(client, keys); err != nil {
				b.Fatal(err)
			}
		}
	})
}
