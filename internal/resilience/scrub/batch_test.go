package scrub

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"godosn/internal/overlay"
	"godosn/internal/telemetry"
)

// TestScrubBatchedMatchesPerKeyReports is the equivalence half of the
// batching contract: over identical corrupted state, the batched pass and
// the per-key baseline must reach the same verdicts, the same repairs, the
// same failures, and the same pass fingerprint — only the cost accounting
// (Stats and the batch counters) may differ. The batched path trades
// messages, never outcomes.
func TestScrubBatchedMatchesPerKeyReports(t *testing.T) {
	run := func(perKey bool) (Report, []string) {
		f := newFixture(t, 111, 20, 30)
		for _, i := range []int{3, 11, 19} {
			key := f.keys[i]
			victim := f.replicasOf(t, key)[1]
			if !f.d.CorruptStored(victim, key, func(b []byte) []byte {
				b[0] ^= 0x08
				return b
			}) {
				t.Fatalf("victim does not hold %s", key)
			}
		}
		// One divergent-but-valid replica too: elections must agree.
		stale := Seal(f.keys[7], []byte("older but validly sealed"))
		if _, err := f.d.StoreTo(f.client, f.keys[7], stale, f.replicasOf(t, f.keys[7])[2]); err != nil {
			t.Fatalf("StoreTo: %v", err)
		}
		cfg := DefaultConfig(f.client)
		cfg.PerKey = perKey
		s := New(f.d, cfg)
		var verdicts []string
		s.SetVerdict(func(node string, ok bool) {
			verdicts = append(verdicts, fmt.Sprintf("%s:%v", node, ok))
		})
		rep, err := s.Scrub(f.keys)
		if err != nil {
			t.Fatalf("Scrub(perKey=%v): %v", perKey, err)
		}
		return rep, verdicts
	}
	batched, vb := run(false)
	perKey, vp := run(true)
	if batched.CorruptCopies != 4 || batched.RepairedWrites != 4 {
		t.Fatalf("batched pass: corrupt=%d repairedWrites=%d, want 4/4", batched.CorruptCopies, batched.RepairedWrites)
	}
	if batched.BatchRPCs == 0 || batched.BatchMsgs == 0 {
		t.Fatalf("batched pass spent no batch RPCs: %+v", batched)
	}
	if perKey.BatchRPCs != 0 || perKey.BatchMsgs != 0 || perKey.RepairBatches != 0 || perKey.CoalescedPushes != 0 {
		t.Fatalf("per-key baseline charged batch counters: %+v", perKey)
	}
	if batched.Stats.Messages >= perKey.Stats.Messages {
		t.Fatalf("batching did not reduce messages: %d vs %d", batched.Stats.Messages, perKey.Stats.Messages)
	}
	// Blank the cost fields that legitimately differ; everything else —
	// verdict counts, repair accounting, the pass fingerprint — must match.
	batched.Stats, perKey.Stats = overlay.OpStats{}, overlay.OpStats{}
	batched.BatchRPCs, batched.BatchMsgs, batched.RepairBatches, batched.CoalescedPushes = 0, 0, 0, 0
	if !reflect.DeepEqual(batched, perKey) {
		t.Fatalf("outcomes diverge between batched and per-key:\nbatched: %+v\nper-key: %+v", batched, perKey)
	}
	if !reflect.DeepEqual(vb, vp) {
		t.Fatalf("verdict streams diverge:\nbatched: %v\nper-key: %v", vb, vp)
	}
}

// TestCleanBatchedPassAllocatesPerGroupNotPerKey: a batched pass over a
// clean ring exchanges one digest batch per replica and drills no group, so
// it allocates per group and per replica — its digest leaves, roots and
// fingerprint are sized before they are filled — and eight times the keys
// in the same groups cost the same count.
//
// The collector stays off while the passes are counted: a cycle that ends
// during a pass lets the runtime's own background work (such as the unique
// package's map cleanup) allocate, and the process-wide count charges that
// to the pass. Over 1 000 passes at 500 keys that was +2 to +6 on 3 % of them,
// with or without -race, and 283 on every pass with the collector off. When
// the two sizes still differ, the failure logs the stacks of the extra
// allocations (extraAllocations).
func TestCleanBatchedPassAllocatesPerGroupNotPerKey(t *testing.T) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs [2]float64
	var groupCounts [2]int
	var passes [2]func()
	for i, keys := range []int{500, 4000} {
		f := newFixture(t, 7, 16, keys)
		index := make(map[string]int)
		var groups []Group
		for _, key := range f.keys {
			plan := f.d.PlanReplicas(key)
			sig := strings.Join(plan, "\x00")
			gi, ok := index[sig]
			if !ok {
				gi = len(groups)
				index[sig] = gi
				groups = append(groups, Group{Replicas: plan})
			}
			groups[gi].Keys = append(groups[gi].Keys, key)
		}
		groupCounts[i] = len(groups)
		s := New(f.d, DefaultConfig(f.client))
		passes[i] = func() {
			rep, err := s.ScrubResolved(groups)
			if err != nil || rep.KeysScanned != keys || rep.DigestClean != len(groups) || rep.KeysCompared != 0 {
				t.Fatalf("clean pass over %d keys: %+v %v", keys, rep, err)
			}
		}
		allocs[i] = testing.AllocsPerRun(5, passes[i])
	}
	if groupCounts[0] != groupCounts[1] {
		t.Fatalf("set-up formed %d groups at 500 keys and %d at 4000", groupCounts[0], groupCounts[1])
	}
	if allocs[0] != allocs[1] {
		// Name what allocated: re-run the size that counted more once with
		// every allocation recorded, against the other as the baseline.
		more := 0
		if allocs[1] > allocs[0] {
			more = 1
		}
		t.Log(extraAllocations(passes[more], passes[1-more]))
		t.Fatalf("clean batched pass allocates %v at 500 keys and %v at 4000, want equal", allocs[0], allocs[1])
	}
}

// TestDirtyBatchedPassAllocatesPerGroupNotPerKey: a batched pass that finds
// one corrupt copy of every key elects, rechecks, repairs and reports it
// allocating per group and per envelope, not per key: the election and the
// recheck judge copies without building an error, each envelope's key list
// is sized once per group, and the scrub.repair and scrub.condemned events
// reuse the event ring's slots. The repairs are acknowledged and dropped,
// so every counted pass meets the same corruption. The collector stays off
// while the passes are counted, as in the clean pin.
func TestDirtyBatchedPassAllocatesPerGroupNotPerKey(t *testing.T) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	var allocs [2]float64
	for i, keys := range []int{500, 4000} {
		kv := &stubBatchKV{data: map[string]map[string][]byte{}}
		for _, name := range names {
			kv.data[name] = map[string][]byte{}
		}
		groups := make([]Group, 4)
		for gi := range groups {
			groups[gi].Replicas = names[gi : gi+3]
		}
		for ki := 0; ki < keys; ki++ {
			key := fmt.Sprintf("k%d", ki)
			g := &groups[ki%len(groups)]
			g.Keys = append(g.Keys, key)
			rec := Seal(key, []byte("payload-"+key))
			for ri, name := range g.Replicas {
				kv.data[name][key] = rec
				if ri == ki%len(g.Replicas) {
					rotten := append([]byte(nil), rec...)
					rotten[len(rotten)-1] ^= 0x01
					kv.data[name][key] = rotten
				}
			}
		}
		s := New(droppedRepairs{kv}, DefaultConfig("c"))
		s.SetVerdict(func(string, bool) {})
		s.SetTelemetry(telemetry.NewRegistry())
		allocs[i] = testing.AllocsPerRun(5, func() {
			rep, err := s.ScrubResolved(groups)
			if err != nil || rep.KeysCompared != keys || rep.CorruptCopies != keys || rep.RepairedWrites != keys {
				t.Fatalf("dirty pass over %d keys: %+v %v", keys, rep, err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("dirty batched pass allocates %v at 500 keys and %v at 4000, want equal", allocs[0], allocs[1])
	}
}

// droppedRepairs acknowledges every repair push and stores none.
type droppedRepairs struct{ *stubBatchKV }

func (droppedRepairs) StoreBatchTo(origin string, keys []string, values [][]byte, replica string) ([]error, overlay.OpStats, error) {
	return make([]error, len(keys)), overlay.OpStats{Messages: 2}, nil
}

// stubBatchKV is a minimal overlay.RepairKV + BatchRepairKV whose
// StoreBatchTo fails exactly the configured key slots — the failure
// injection the simnet cannot express (its envelopes fail whole).
type stubBatchKV struct {
	replicas []string
	data     map[string]map[string][]byte // replica -> key -> record
	badKeys  map[string]bool              // per-slot StoreBatchTo failures
	lost     map[string]bool              // replicas whose FetchBatchFrom slots all error
	garbled  map[string]int               // replica -> reads still to serve with a flipped last byte
	stores   int                          // StoreBatchTo envelopes sent
}

func (s *stubBatchKV) Name() string { return "stub" }

func (s *stubBatchKV) Store(origin, key string, value []byte) (overlay.OpStats, error) {
	for _, r := range s.replicas {
		s.data[r][key] = append([]byte(nil), value...)
	}
	return overlay.OpStats{}, nil
}

func (s *stubBatchKV) Lookup(origin, key string) ([]byte, overlay.OpStats, error) {
	for _, r := range s.replicas {
		if v, ok := s.data[r][key]; ok {
			return v, overlay.OpStats{}, nil
		}
	}
	return nil, overlay.OpStats{}, overlay.ErrNotFound
}

func (s *stubBatchKV) ReplicasFor(origin, key string) ([]string, overlay.OpStats, error) {
	return append([]string(nil), s.replicas...), overlay.OpStats{}, nil
}

func (s *stubBatchKV) LookupFrom(origin, key, replica string) ([]byte, overlay.OpStats, error) {
	garble := s.garble(replica)
	if v, ok := s.data[replica][key]; ok {
		return garble(v), overlay.OpStats{Messages: 2}, nil
	}
	return nil, overlay.OpStats{Messages: 2}, overlay.ErrNotFound
}

func (s *stubBatchKV) StoreTo(origin, key string, value []byte, replica string) (overlay.OpStats, error) {
	s.data[replica][key] = append([]byte(nil), value...)
	return overlay.OpStats{Messages: 2}, nil
}

func (s *stubBatchKV) FetchBatchFrom(origin string, keys []string, replica string) ([]overlay.BatchResult, overlay.OpStats, error) {
	out := make([]overlay.BatchResult, len(keys))
	garble := s.garble(replica)
	for i, k := range keys {
		if s.lost[replica] {
			out[i].Err = fmt.Errorf("stub: slot read failed for %s", k)
		} else if v, ok := s.data[replica][k]; ok {
			out[i].Value = garble(v)
		} else {
			out[i].Err = overlay.ErrNotFound
		}
	}
	return out, overlay.OpStats{Messages: 2}, nil
}

// garble counts one read from replica and returns what it does to the
// copies served: flip their last byte while garbled reads remain.
func (s *stubBatchKV) garble(replica string) func([]byte) []byte {
	if s.garbled[replica] == 0 {
		return func(v []byte) []byte { return v }
	}
	s.garbled[replica]--
	return func(v []byte) []byte {
		out := append([]byte(nil), v...)
		out[len(out)-1] ^= 0x01
		return out
	}
}

func (s *stubBatchKV) StoreBatchTo(origin string, keys []string, values [][]byte, replica string) ([]error, overlay.OpStats, error) {
	s.stores++
	errs := make([]error, len(keys))
	for i, k := range keys {
		if s.badKeys[k] {
			errs[i] = fmt.Errorf("stub: slot write refused for %s", k)
			continue
		}
		s.data[replica][k] = append([]byte(nil), values[i]...)
	}
	return errs, overlay.OpStats{Messages: 2}, nil
}

// TestScrubRepairCoalescingIsolatesFailures pins the per-slot error
// contract of the coalesced repair push: one refused key inside a
// store_batch envelope must fail only itself — its siblings in the same
// envelope repair normally, and the accounting splits them precisely.
func TestScrubRepairCoalescingIsolatesFailures(t *testing.T) {
	kv := &stubBatchKV{
		replicas: []string{"r0", "r1", "r2"},
		data:     map[string]map[string][]byte{"r0": {}, "r1": {}, "r2": {}},
		badKeys:  map[string]bool{"k1": true},
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	for _, k := range keys {
		if _, err := kv.Store("c", k, Seal(k, []byte("payload-"+k))); err != nil {
			t.Fatalf("Store: %v", err)
		}
		delete(kv.data["r2"], k) // r2 misses every copy: 4 pushes, one envelope
	}
	s := New(kv, DefaultConfig("c"))
	rep, err := s.Scrub(keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if kv.stores != 1 {
		t.Fatalf("repairs were not coalesced: %d store_batch envelopes, want 1", kv.stores)
	}
	if rep.RepairBatches != 1 || rep.CoalescedPushes != 4 {
		t.Fatalf("batch accounting: batches=%d coalesced=%d, want 1/4", rep.RepairBatches, rep.CoalescedPushes)
	}
	if rep.RepairedWrites != 3 || rep.RepairWriteFailures != 1 {
		t.Fatalf("repairedWrites=%d writeFailures=%d, want 3/1 — one bad slot must not fail its siblings",
			rep.RepairedWrites, rep.RepairWriteFailures)
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if v, ok := kv.data["r2"][k]; !ok || Check(k, v) != nil {
			t.Fatalf("sibling %s not repaired onto r2", k)
		}
	}
	if _, ok := kv.data["r2"]["k1"]; ok {
		t.Fatal("refused slot k1 reported stored")
	}
}

// TestScrubSlotErrorIsUnreachableNotMissing pins the per-slot read-error
// contract of the column fetch: a slot error other than not-found inside a
// delivered envelope leaves that copy's state unknown — it is counted
// unreachable, exactly as the per-key path classifies a failed LookupFrom,
// and no repair is pushed over it.
func TestScrubSlotErrorIsUnreachableNotMissing(t *testing.T) {
	kv := &stubBatchKV{
		replicas: []string{"r0", "r1", "r2"},
		data:     map[string]map[string][]byte{"r0": {}, "r1": {}, "r2": {}},
		lost:     map[string]bool{"r2": true},
	}
	keys := []string{"k0", "k1"}
	for _, k := range keys {
		if _, err := kv.Store("c", k, Seal(k, []byte("payload-"+k))); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	rep, err := New(kv, DefaultConfig("c")).Scrub(keys)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.MissingCopies != 0 || rep.UnreachableHolders != 2 {
		t.Fatalf("missing=%d unreachable=%d, want 0/2", rep.MissingCopies, rep.UnreachableHolders)
	}
	if kv.stores != 0 || rep.RepairedWrites != 0 {
		t.Fatalf("repair pushed over a copy of unknown state: envelopes=%d repairedWrites=%d", kv.stores, rep.RepairedWrites)
	}
	if rep.CleanKeys != 2 || rep.DivergentKeys != 0 || rep.Failed != 0 {
		t.Fatalf("clean=%d divergent=%d failed=%d, want 2/0/0", rep.CleanKeys, rep.DivergentKeys, rep.Failed)
	}
}

// TestDedupePreservesFirstOccurrenceOrder pins the dedupe contract group
// formation depends on: first occurrence wins, relative order survives.
func TestDedupePreservesFirstOccurrenceOrder(t *testing.T) {
	in := []string{"b", "a", "b", "c", "a", "d", "d", "b"}
	want := []string{"b", "a", "c", "d"}
	if got := dedupe(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupe(%v) = %v, want %v", in, got, want)
	}
	if got := dedupe(nil); len(got) != 0 {
		t.Fatalf("dedupe(nil) = %v", got)
	}
}

// TestScrubGroupFormationOrderStableAcrossWorkers feeds a scrambled,
// duplicate-ridden key list through passes at Workers 1 and 8: group
// formation follows first-occurrence key order regardless of parallelism,
// so the merged reports (and pass fingerprints) are identical.
func TestScrubGroupFormationOrderStableAcrossWorkers(t *testing.T) {
	scrambled := func(keys []string) []string {
		out := make([]string, 0, 2*len(keys))
		for i := len(keys) - 1; i >= 0; i-- {
			out = append(out, keys[i], keys[(i+7)%len(keys)])
		}
		return out
	}
	run := func(workers int) Report {
		f := newFixture(t, 112, 20, 30)
		for _, i := range []int{4, 21} {
			key := f.keys[i]
			victim := f.replicasOf(t, key)[0]
			f.d.CorruptStored(victim, key, func(b []byte) []byte {
				b[2] ^= 0x02
				return b
			})
		}
		cfg := DefaultConfig(f.client)
		cfg.Workers = workers
		rep, err := New(f.d, cfg).Scrub(scrambled(f.keys))
		if err != nil {
			t.Fatalf("Scrub(workers=%d): %v", workers, err)
		}
		return rep
	}
	r1, r8 := run(1), run(8)
	if r1.KeysScanned != 30 {
		t.Fatalf("dedupe failed: KeysScanned = %d, want 30", r1.KeysScanned)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("group formation order diverges across worker counts:\n  1: %+v\n  8: %+v", r1, r8)
	}
}
