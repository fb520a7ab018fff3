package bench

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"time"

	"godosn/internal/cache"
	"godosn/internal/overlay"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/stack"
	"godosn/internal/telemetry"
	"godosn/internal/workload"
)

// e23Batch is the E23 read/write batch size (1 would be the sequential arm
// again; past the ring size the grouping gain has long saturated).
const e23Batch = 256

// e23Stats is one arm's complete transport outcome at one sweep point.
// Every field is part of the determinism contract: two runs with the same
// knobs must DeepEqual, at any FanoutWorkers setting. Latency and memory
// are deliberately excluded (latency is schedule-shaped in the sequential
// arm's sum model; memory is the GC's business) and reported separately.
type e23Stats struct {
	Users, Ops            int
	Writes, Reads, Misses int
	Failed                int
	Msgs, Bytes, Hops     int
	Batches, BatchKeys    int
	BatchFallbacks        int
	Digest                uint64
}

// e23Point is one sweep point's pair of arms plus its measured footprint.
type e23Point struct {
	users    int
	seq, bat e23Stats
	seqHeap  int64
	batHeap  int64
}

// E23ScaleSweep streams a social workload (Zipf actors, DefaultMix
// actions, write-on-first-read feeds) over populations from ten thousand
// to a million users — without ever materializing them — and compares two
// transport arms over the identical action sequence: sequential
// Store/Lookup per action vs route-grouped PutBatch/GetBatch through the
// resilience layer. Invariants are enforced in-run: the arms must agree
// byte-for-byte on every read outcome (a digest over issue-ordered
// results), the batched arm must spend >= 3x fewer messages per operation,
// resident memory must stay flat as the population grows 10-100x (the
// streaming driver's whole point), no batch key may need a single-key
// rescue on a lossless network, and each arm must be DeepEqual-identical
// run-to-run and at FanoutWorkers 1 vs 8.
func E23ScaleSweep(quick bool) (*Table, error) {
	sweep := []int{10_000, 100_000, 1_000_000}
	ops := 20_000
	if quick {
		sweep = []int{10_000, 100_000}
		ops = 5_000
	}
	points := make([]e23Point, 0, len(sweep))
	var snap *telemetry.Snapshot
	for _, users := range sweep {
		p := e23Point{users: users}
		for _, arm := range []struct {
			batched bool
			dst     *e23Stats
			heap    *int64
		}{{false, &p.seq, &p.seqHeap}, {true, &p.bat, &p.batHeap}} {
			// Determinism gate: the measured run, a back-to-back repeat, and
			// a FanoutWorkers=8 run must all agree on every counted field.
			a, heap, sn, err := runE23Arm(users, ops, 1, arm.batched, true)
			if err != nil {
				return nil, err
			}
			b, _, _, err := runE23Arm(users, ops, 1, arm.batched, false)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(a, b) {
				return nil, fmt.Errorf("bench: e23 invariant violated: back-to-back runs differ (users=%d batched=%v)", users, arm.batched)
			}
			c, _, _, err := runE23Arm(users, ops, 8, arm.batched, false)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(a, c) {
				return nil, fmt.Errorf("bench: e23 invariant violated: FanoutWorkers 1 vs 8 differ (users=%d batched=%v)", users, arm.batched)
			}
			*arm.dst = a
			*arm.heap = heap
			if arm.batched {
				snap = sn
			}
		}

		// Arm-agreement invariants: same actions, same outcomes, same bytes.
		if p.seq.Digest != p.bat.Digest {
			return nil, fmt.Errorf("bench: e23 invariant violated: read digests differ between arms (users=%d)", users)
		}
		if p.seq.Misses != p.bat.Misses || p.seq.Reads != p.bat.Reads || p.seq.Writes != p.bat.Writes {
			return nil, fmt.Errorf("bench: e23 invariant violated: outcome counts differ between arms (users=%d)", users)
		}
		if p.seq.Failed != 0 || p.bat.Failed != 0 {
			return nil, fmt.Errorf("bench: e23 invariant violated: operations failed on a lossless network (users=%d: %d/%d)", users, p.seq.Failed, p.bat.Failed)
		}
		if p.bat.BatchFallbacks != 0 {
			return nil, fmt.Errorf("bench: e23 invariant violated: %d batch keys needed single-key rescue on a lossless network", p.bat.BatchFallbacks)
		}
		if ratio := e23MsgPerOp(p.seq) / e23MsgPerOp(p.bat); ratio < 3 {
			return nil, fmt.Errorf("bench: e23 invariant violated: batching saved only %.2fx messages/op (want >= 3x, users=%d)", ratio, users)
		}
		points = append(points, p)
	}

	// Memory flatness: the streaming driver's footprint must not track the
	// population. Across a >= 10x user growth, total live heap may wobble
	// (GC, map growth) but not scale — bound it at 2.5x + 1 MiB slack, which
	// still forces per-user bytes down at least 4x.
	first, last := points[0], points[len(points)-1]
	if last.users >= 10*first.users {
		if limit := first.batHeap*5/2 + 1<<20; last.batHeap > limit {
			return nil, fmt.Errorf("bench: e23 invariant violated: live heap grew with the population (%d users: %d bytes; %d users: %d bytes)",
				first.users, first.batHeap, last.users, last.batHeap)
		}
	}
	if snap == nil {
		return nil, fmt.Errorf("bench: e23 missing telemetry snapshot")
	}
	if v, ok := counterOf(*snap, "resilience_batches_total"); !ok || v == 0 {
		return nil, fmt.Errorf("bench: e23 invariant violated: no batches recorded in telemetry (%d)", v)
	}

	t := &Table{
		ID:     "E23",
		Title:  fmt.Sprintf("scale: streaming workload sweep, sequential vs batched transport (batch=%d, %d ops/point, DHT k=3)", e23Batch, ops),
		Header: []string{"users", "arm", "msg/op", "bytes/op", "msgs", "misses", "live heap", "B/user"},
	}
	for _, p := range points {
		for _, arm := range []struct {
			name string
			s    e23Stats
			heap int64
		}{{"sequential", p.seq, p.seqHeap}, {"batched", p.bat, p.batHeap}} {
			opsDone := arm.s.Writes + arm.s.Reads
			t.AddRow(
				e23Users(p.users),
				arm.name,
				fmt.Sprintf("%.2f", e23MsgPerOp(arm.s)),
				fmt.Sprintf("%.0f", float64(arm.s.Bytes)/float64(opsDone)),
				fmt.Sprintf("%d", arm.s.Msgs),
				fmt.Sprintf("%d", arm.s.Misses),
				fmt.Sprintf("%.1fMB", float64(arm.heap)/(1<<20)),
				fmt.Sprintf("%.1f", float64(arm.heap)/float64(p.users)),
			)
		}
	}
	t.AddNote("both arms drive the identical streamed action sequence (posts, comments, feed reads, searches) and must produce identical read outcomes — checked by digest")
	t.AddNote("the batched arm groups keys by successor root: one routing pass per root instead of per key, writes in one envelope per destination node, reads in one per replica group, plus hot-key dedupe within each batch")
	t.AddNote("live heap is measured after GC with the whole stack still referenced; it tracks ops and the touched working set, not the population — the 100x user growth costs no memory because users are streamed, never materialized")
	if quick {
		t.AddNote("quick mode sweeps 10k->100k; the full run adds the in-harness 1M-user point (same ops budget — population size only widens the Zipf range)")
	} else {
		t.AddNote("the 1M-user point runs in-harness: the streaming driver needs no per-user state, so a million users cost the same memory as ten thousand")
	}
	t.AddNote("determinism: each arm is DeepEqual-identical back to back and at FanoutWorkers=1 vs =8 (message/byte/hop counts, outcome counts, read digest); latency and heap are excluded by design")
	t.AddNote("read/write batch size %d keys is a fixed constant", e23Batch)
	for _, p := range points {
		u := e23Users(p.users)
		t.AddMetric("e23_seq_msg_per_op_"+u, "msg/op", e23MsgPerOp(p.seq))
		t.AddMetric("e23_bat_msg_per_op_"+u, "msg/op", e23MsgPerOp(p.bat))
		t.AddMetric("e23_msg_saving_"+u, "x", e23MsgPerOp(p.seq)/e23MsgPerOp(p.bat))
		t.AddMetric("e23_bat_heap_"+u, "bytes", float64(p.batHeap))
		t.AddMetric("e23_bat_bytes_per_user_"+u, "B/user", float64(p.batHeap)/float64(p.users))
	}
	t.AddMetric("e23_batch_size", "keys", float64(e23Batch))
	t.AddMetric("e23_deterministic", "bool", 1)
	t.Telemetry = snap
	return t, nil
}

func e23Users(n int) string { return fmt.Sprintf("%dk", n/1000) }

func e23MsgPerOp(s e23Stats) float64 {
	return float64(s.Msgs) / float64(s.Writes+s.Reads)
}

// runE23Arm drives one arm over one streamed workload: a 48-node lossless
// DHT ring behind the resilience layer, all actions originating at one
// client node. The batched arm buffers writes and reads separately and
// flushes a buffer when it fills OR when the other kind touches one of its
// keys — per-key program order is preserved exactly, so outcomes match the
// sequential arm byte for byte. When measure is set, the live heap
// (post-GC, stack still referenced) and the telemetry snapshot are
// captured.
func runE23Arm(users, ops, workers int, batched, measure bool) (e23Stats, int64, *telemetry.Snapshot, error) {
	const seed = int64(2319)
	const peers = 48
	var baseHeap uint64
	if measure {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		baseHeap = m.HeapAlloc
	}
	s := e23Stats{Users: users, Ops: ops}

	// No value cache in either arm: repeat reads must hit the network, or
	// the comparison would measure the cache (E21's subject), not the
	// transport.
	rcfg := resilience.DefaultConfig(seed)
	reg := telemetry.NewRegistry()
	st, err := stack.Build(stack.Spec{
		Names: benchNames(peers),
		// Lossless and jitter-free: no retries fire, so the seeded retry RNG
		// is never drawn and the counted costs are schedule-independent.
		Net: simnet.Config{Seed: seed, BaseLatency: 10 * time.Millisecond},
		DHT: dht.Config{
			ReplicationFactor: 3,
			FanoutWorkers:     workers,
			RouteCache:        cache.Config{Capacity: 4096, Shards: 1, Seed: seed},
		},
		Resilience: &rcfg,
		Registry:   reg,
	})
	if err != nil {
		return s, 0, nil, err
	}
	kv, client := st.KV, st.Client
	stream, err := workload.NewStream(workload.StreamConfig{Users: users, Ops: ops, Seed: 23})
	if err != nil {
		return s, 0, nil, err
	}

	digest := fnv.New64a()
	foldRead := func(key string, val []byte, miss bool) {
		digest.Write([]byte(key))
		digest.Write([]byte{0})
		if miss {
			digest.Write([]byte{0xff})
			s.Misses++
		} else {
			digest.Write(val)
		}
		digest.Write([]byte{0})
	}

	var (
		wKeys []string
		wVals [][]byte
		wSet  = map[string]struct{}{}
		rKeys []string
		rSet  = map[string]struct{}{}
	)
	flushWrites := func() error {
		if len(wKeys) == 0 {
			return nil
		}
		errs, st, err := kv.PutBatch(client, wKeys, wVals)
		if err != nil {
			return fmt.Errorf("bench: e23 PutBatch: %w", err)
		}
		s.Msgs += st.Messages
		s.Bytes += st.Bytes
		s.Hops += st.Hops
		for _, e := range errs {
			if e != nil {
				s.Failed++
			}
		}
		wKeys, wVals, wSet = wKeys[:0], wVals[:0], map[string]struct{}{}
		return nil
	}
	flushReads := func() error {
		if len(rKeys) == 0 {
			return nil
		}
		results, st, err := kv.GetBatch(client, rKeys)
		if err != nil {
			return fmt.Errorf("bench: e23 GetBatch: %w", err)
		}
		s.Msgs += st.Messages
		s.Bytes += st.Bytes
		s.Hops += st.Hops
		for i, r := range results {
			switch {
			case r.Err == nil:
				foldRead(rKeys[i], r.Value, false)
			case errors.Is(r.Err, overlay.ErrNotFound):
				foldRead(rKeys[i], nil, true)
			default:
				s.Failed++
			}
		}
		rKeys, rSet = rKeys[:0], map[string]struct{}{}
		return nil
	}
	doWrite := func(key string, val []byte) error {
		s.Writes++
		if !batched {
			st, err := kv.Store(client, key, val)
			s.Msgs += st.Messages
			s.Bytes += st.Bytes
			s.Hops += st.Hops
			if err != nil {
				s.Failed++
			}
			return nil
		}
		// Pending reads of this key predate this write and must see the
		// older state: flush them first. (Same-key rewrites would also need
		// ordering, but every streamed write key is unique by construction.)
		if _, conflict := rSet[key]; conflict {
			if err := flushReads(); err != nil {
				return err
			}
		}
		wKeys = append(wKeys, key)
		wVals = append(wVals, val)
		wSet[key] = struct{}{}
		if len(wKeys) >= e23Batch {
			return flushWrites()
		}
		return nil
	}
	doRead := func(key string) error {
		s.Reads++
		if !batched {
			v, st, err := kv.Lookup(client, key)
			s.Msgs += st.Messages
			s.Bytes += st.Bytes
			s.Hops += st.Hops
			switch {
			case err == nil:
				foldRead(key, v, false)
			case errors.Is(err, overlay.ErrNotFound):
				foldRead(key, nil, true)
			default:
				s.Failed++
			}
			return nil
		}
		// A pending write of this key must land before this read sees it.
		if _, conflict := wSet[key]; conflict {
			if err := flushWrites(); err != nil {
				return err
			}
		}
		rKeys = append(rKeys, key)
		rSet[key] = struct{}{}
		if len(rKeys) >= e23Batch {
			return flushReads()
		}
		return nil
	}

	for {
		a, ok := stream.Next()
		if !ok {
			break
		}
		switch a.Kind {
		case workload.ActionPost, workload.ActionComment:
			if err := doWrite(a.Key, a.Value); err != nil {
				return s, 0, nil, err
			}
			// A user's first post also publishes its search-index entry, so
			// later searches for active users hit.
			if a.Kind == workload.ActionPost && strings.HasSuffix(a.Key, "/0") {
				if err := doWrite(workload.SearchKey(a.Actor), []byte("index:"+a.Key)); err != nil {
					return s, 0, nil, err
				}
			}
		case workload.ActionReadFeed, workload.ActionSearch:
			if err := doRead(a.Key); err != nil {
				return s, 0, nil, err
			}
		}
	}
	if err := flushWrites(); err != nil {
		return s, 0, nil, err
	}
	if err := flushReads(); err != nil {
		return s, 0, nil, err
	}
	s.Digest = digest.Sum64()
	m := kv.Metrics()
	s.Batches, s.BatchKeys, s.BatchFallbacks = m.Batches, m.BatchKeys, m.BatchFallbacks

	var heap int64
	var snap *telemetry.Snapshot
	if measure {
		// Post-GC live heap with every layer still referenced: the ring's
		// stored data, the route cache, the stream's tracked users — the
		// arm's whole resident footprint, none of it proportional to Users.
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		if mem.HeapAlloc > baseHeap {
			heap = int64(mem.HeapAlloc - baseHeap)
		}
		sn := reg.Snapshot()
		snap = &sn
	}
	runtime.KeepAlive(st)
	runtime.KeepAlive(stream)
	return s, heap, snap, nil
}
