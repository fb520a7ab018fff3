package scrub

import (
	"fmt"
	"reflect"
	"testing"

	"godosn/internal/telemetry"
)

// sweepFixture builds a fixture plus a sweeper over its keyspace.
func sweepFixture(t *testing.T, seed int64, keys int, cfg SweepConfig, workers int) (*fixture, *Scrubber, *Sweeper) {
	t.Helper()
	f := newFixture(t, seed, 20, keys)
	scfg := DefaultConfig(f.client)
	scfg.Workers = workers
	s := New(f.d, scfg)
	return f, s, NewSweeper(s, f.d, f.keys, cfg)
}

// TestSweepBudgetNeverExceeded is the budget-by-construction soak: across
// a long run with corruption injected mid-sweep (forcing drill-downs,
// rechecks, repairs, and priority re-scrubs), no tick's actual message
// spend may ever exceed the configured budget — and the pre-charged worst
// case must genuinely bound the spend.
func TestSweepBudgetNeverExceeded(t *testing.T) {
	// A chunk of 8 keys can split into 8 single-key groups, so its batched
	// worst case is ~8 groups x 3 phases x 3 replicas x 2 msgs plus the
	// digest fan-out — the budget must clear that for no chunk to starve.
	const budget = 256
	f, _, sw := sweepFixture(t, 201, 60, SweepConfig{Budget: budget, ChunkKeys: 8}, 1)
	totalKeys := 0
	for tick := 0; tick < 40; tick++ {
		if tick%5 == 2 {
			// Rot a copy mid-sweep so later ticks hit the expensive paths.
			key := f.keys[(tick*7)%len(f.keys)]
			victim := f.replicasOf(t, key)[1]
			f.d.CorruptStored(victim, key, func(b []byte) []byte {
				b[0] ^= 0x10
				return b
			})
		}
		rep, err := sw.Tick()
		if err != nil {
			t.Fatalf("Tick %d: %v", tick, err)
		}
		if rep.Msgs > budget {
			t.Fatalf("tick %d spent %d messages, budget %d", tick, rep.Msgs, budget)
		}
		if rep.Msgs > rep.Worst {
			t.Fatalf("tick %d spent %d messages above its pre-charged worst case %d", tick, rep.Msgs, rep.Worst)
		}
		if rep.Starved != 0 {
			t.Fatalf("tick %d starved %d chunks at a budget that fits every chunk", tick, rep.Starved)
		}
		totalKeys += rep.Keys
	}
	if totalKeys < 3*len(f.keys) {
		t.Fatalf("40 budgeted ticks covered only %d key-scans over a %d-key space", totalKeys, len(f.keys))
	}
	// Every injected corruption was caught and repaired along the way: a
	// final unbudgeted full pass over the keyspace is clean.
	s2 := New(f.d, DefaultConfig(f.client))
	rep, err := s2.Scrub(f.keys)
	if err != nil {
		t.Fatalf("final Scrub: %v", err)
	}
	if rep.DivergentKeys != 0 || rep.CorruptCopies != 0 {
		t.Fatalf("sweep left divergence behind: %+v", rep)
	}
}

// TestSweepChunkTooBigIsStarvedNotWedged pins the starvation contract: a
// chunk whose lone worst case exceeds the whole budget is counted starved
// and skipped — the sweep keeps turning instead of blocking forever.
func TestSweepChunkTooBigIsStarvedNotWedged(t *testing.T) {
	_, _, sw := sweepFixture(t, 202, 32, SweepConfig{Budget: 5, ChunkKeys: 8}, 1)
	rep, err := sw.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep.Chunks != 0 || rep.Msgs != 0 {
		t.Fatalf("no chunk fits a budget of 5, yet %d ran (%d msgs)", rep.Chunks, rep.Msgs)
	}
	if rep.Starved != sw.Chunks() {
		t.Fatalf("Starved = %d, want all %d chunks", rep.Starved, sw.Chunks())
	}
}

// TestSweepDeterministicAcrossWorkers runs the same budgeted sweep over
// identically corrupted fixtures at Workers 1 and 8: every per-tick report
// — counts, costs, and the underlying scrub reports — must be identical.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []SweepReport {
		f, _, sw := sweepFixture(t, 203, 48, SweepConfig{Budget: 256, ChunkKeys: 8}, workers)
		for _, i := range []int{5, 17, 40} {
			key := f.keys[i]
			victim := f.replicasOf(t, key)[0]
			f.d.CorruptStored(victim, key, func(b []byte) []byte {
				b[1] ^= 0x01
				return b
			})
		}
		var out []SweepReport
		for tick := 0; tick < 12; tick++ {
			rep, err := sw.Tick()
			if err != nil {
				t.Fatalf("Tick(workers=%d): %v", workers, err)
			}
			out = append(out, rep)
		}
		return out
	}
	r1, r8 := run(1), run(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("sweep diverges across worker counts:\n  1: %+v\n  8: %+v", r1, r8)
	}
	repaired := 0
	for _, rep := range r1 {
		repaired += rep.Repaired
	}
	if repaired < 3 {
		t.Fatalf("sweep repaired %d copies, want >= 3", repaired)
	}
}

// TestSweepCursorResumesAcrossRestart pins the cursor as all of a sweep's
// progress: a fresh sweeper given a saved cursor scrubs exactly the chunks
// the original would have scrubbed next.
func TestSweepCursorResumesAcrossRestart(t *testing.T) {
	const ticks = 3
	cfg := SweepConfig{Budget: 256, ChunkKeys: 8}
	// Reference: one sweeper runs ticks+1 ticks straight through.
	_, _, ref := sweepFixture(t, 204, 48, cfg, 1)
	var want SweepReport
	for i := 0; i <= ticks; i++ {
		rep, err := ref.Tick()
		if err != nil {
			t.Fatalf("ref Tick: %v", err)
		}
		want = rep
	}
	// Restart: an identical sweeper runs `ticks` ticks, persists only its
	// cursor, and a brand-new sweeper resumes from it.
	f, s, sw := sweepFixture(t, 204, 48, cfg, 1)
	for i := 0; i < ticks; i++ {
		if _, err := sw.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
	}
	resumed := NewSweeper(s, f.d, f.keys, cfg)
	if resumed.cursor != 0 {
		t.Fatalf("fresh sweeper starts at %d", resumed.cursor)
	}
	resumed.cursor = sw.cursor
	got, err := resumed.Tick()
	if err != nil {
		t.Fatalf("resumed Tick: %v", err)
	}
	got.Tick, want.Tick = 0, 0 // tick numbering restarts; the work must not
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed tick diverges from uninterrupted run:\nresumed: %+v\nwant:    %+v", got, want)
	}
}

// TestSweepPriorityPreemptsCursor pins the scheduling order: suspect
// chunks enqueued through NoteSuspect run before the cursor advances, in
// FIFO order, without double-enqueueing, and without moving the cursor.
func TestSweepPriorityPreemptsCursor(t *testing.T) {
	f, _, sw := sweepFixture(t, 205, 48, SweepConfig{Budget: 200, ChunkKeys: 8}, 1)
	if sw.Chunks() < 5 {
		t.Fatalf("fixture too small: %d chunks", sw.Chunks())
	}
	// Chunk i holds keys[8i:8i+8] (registration order), so key index 26 is
	// chunk 3 and index 10 is chunk 1.
	sw.NoteSuspect(f.keys[26])
	sw.NoteSuspect(f.keys[10])
	sw.NoteSuspect(f.keys[27]) // same chunk as 26: deduplicated
	sw.NoteSuspect("never-registered")
	sw.admit() // what the next AddKeys or Tick does first
	if got := sw.prio; !reflect.DeepEqual(got, []int{3, 1}) {
		t.Fatalf("queue = %v, want [3 1]", got)
	}
	rep, err := sw.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep.Priority == 0 {
		t.Fatal("tick scrubbed no priority chunks")
	}
	if rep.Priority < 2 {
		// The budget fit only part of the queue: the remainder stays FIFO.
		if got := sw.prio; !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("queue after partial tick = %v, want [1]", got)
		}
	} else if got := sw.prio; len(got) != 0 {
		t.Fatalf("queue after tick = %v, want empty", got)
	}
}

// TestSweepBadVerdictRequeuesChunk pins the feedback loop: a chunk whose
// scrub finds divergence re-enters the priority queue and is re-verified
// on the next tick, confirming the repair stuck.
func TestSweepBadVerdictRequeuesChunk(t *testing.T) {
	f, _, sw := sweepFixture(t, 206, 16, SweepConfig{Budget: 0, ChunkKeys: 8}, 1)
	key := f.keys[2] // chunk 0
	victim := f.replicasOf(t, key)[1]
	f.d.CorruptStored(victim, key, func(b []byte) []byte {
		b[0] ^= 0x40
		return b
	})
	rep1, err := sw.Tick() // unbudgeted: exactly one chunk — chunk 0
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep1.Chunks != 1 || rep1.Divergent != 1 || rep1.Repaired != 1 {
		t.Fatalf("first tick: %+v, want 1 chunk, 1 divergent, 1 repaired", rep1)
	}
	if got := sw.prio; !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("bad verdict did not requeue chunk 0: queue = %v", got)
	}
	rep2, err := sw.Tick() // re-verifies chunk 0 from the queue
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep2.Priority != 1 || rep2.Divergent != 0 {
		t.Fatalf("re-verify tick: %+v, want 1 priority chunk, clean", rep2)
	}
	if got := sw.prio; len(got) != 0 {
		t.Fatalf("clean re-verify left the queue non-empty: %v", got)
	}
}

// TestSweepTelemetryAndGrowth covers the registry mirror and AddKeys: the
// position gauge tracks the cursor, counters accumulate, and keys added
// mid-sweep keep chunk indices stable.
func TestSweepTelemetryAndGrowth(t *testing.T) {
	f, _, sw := sweepFixture(t, 208, 16, SweepConfig{Budget: 0, ChunkKeys: 8}, 1)
	reg := telemetry.NewRegistry()
	sw.SetTelemetry(reg)
	if _, err := sw.Tick(); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if got := reg.Gauge("scrub_sweep_position").Value(); got != float64(sw.cursor) {
		t.Fatalf("position gauge = %v, cursor = %d", got, sw.cursor)
	}
	if reg.Counter("scrub_sweep_ticks_total").Value() != 1 || reg.Counter("scrub_sweep_chunks_total").Value() != 1 {
		t.Fatal("tick/chunk counters did not accumulate")
	}
	if reg.Counter("scrub_sweep_msgs_total").Value() == 0 {
		t.Fatal("message counter did not accumulate")
	}
	before := sw.Chunks()
	sw.AddKeys(f.keys...) // duplicates: no growth
	if sw.Chunks() != before || sw.Keys() != len(f.keys) {
		t.Fatalf("duplicate AddKeys changed the keyspace: %d chunks, %d keys", sw.Chunks(), sw.Keys())
	}
	sw.AddKeys("grown-1", "grown-2")
	if sw.Keys() != len(f.keys)+2 {
		t.Fatalf("Keys = %d after growth", sw.Keys())
	}
	// Existing keys keep their chunks: chunk 0's first key is unmoved.
	sw.NoteSuspect(f.keys[0])
	sw.admit()
	if got := sw.prio; !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("growth moved existing keys: queue = %v", got)
	}
}

// TestSweepHintBeforeRegistrationIsHeld pins the intake's hold: a key hinted
// before the sweeper registers it is not dropped, and its chunk joins the
// priority queue at the AddKeys that registers it, without reordering chunk
// formation.
func TestSweepHintBeforeRegistrationIsHeld(t *testing.T) {
	f, _, sw := sweepFixture(t, 209, 16, SweepConfig{Budget: 0, ChunkKeys: 8}, 1)
	sw.NoteSuspect("late-1")
	if _, err := sw.Tick(); err != nil { // the cursor's chunk 0; the hint waits
		t.Fatalf("Tick: %v", err)
	}
	if len(sw.prio) != 0 || !reflect.DeepEqual(sw.intake, []string{"late-1"}) {
		t.Fatalf("unregistered hint: queue %v, intake %v; want it held", sw.prio, sw.intake)
	}
	for _, key := range []string{"late-0", "late-1"} {
		if _, err := f.d.Store(f.client, key, Seal(key, []byte(key))); err != nil {
			t.Fatal(err)
		}
	}
	sw.AddKeys("late-0", "late-1")
	if sw.chunkOf["late-0"] != 2 || sw.chunkOf["late-1"] != 2 || sw.Chunks() != 3 {
		t.Fatalf("late keys formed chunks %d and %d of %d, want both in chunk 2 of 3",
			sw.chunkOf["late-0"], sw.chunkOf["late-1"], sw.Chunks())
	}
	if !reflect.DeepEqual(sw.prio, []int{2}) || len(sw.intake) != 0 {
		t.Fatalf("after registration: queue %v, intake %v; want [2] and empty", sw.prio, sw.intake)
	}
	rep, err := sw.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep.Priority != 1 || rep.Keys != 2 || sw.cursor != 1 {
		t.Fatalf("hinted tick: %+v, cursor %d; want the 2-key chunk 2 from the queue, cursor still 1", rep, sw.cursor)
	}
}

// TestSweepHintAndBadVerdictScrubOnce: a chunk queued by a bad verdict and
// hinted again before the next tick is scrubbed once, not twice.
func TestSweepHintAndBadVerdictScrubOnce(t *testing.T) {
	f, _, sw := sweepFixture(t, 210, 16, SweepConfig{Budget: 1 << 20, ChunkKeys: 8}, 1)
	key := f.keys[3] // chunk 0
	f.d.CorruptStored(f.replicasOf(t, key)[1], key, func(b []byte) []byte {
		b[0] ^= 0x08
		return b
	})
	rep, err := sw.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep.Divergent != 1 || !reflect.DeepEqual(sw.prio, []int{0}) {
		t.Fatalf("first tick: %+v, queue %v; want chunk 0 divergent and re-queued", rep, sw.prio)
	}
	sw.NoteSuspect(key)
	sw.NoteSuspect(f.keys[5])
	rep, err = sw.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep.Chunks != 2 || rep.Priority != 1 {
		t.Fatalf("re-verify tick: %+v; want chunk 0 once from the queue and chunk 1 from the cursor", rep)
	}
	for _, r := range rep.Reports {
		if r.KeysScanned != 8 {
			t.Fatalf("a chunk scrubbed %d keys, want 8", r.KeysScanned)
		}
	}
}

// TestSweepHintsRespectBudget: hinting every chunk never lets a tick spend
// past its budget; the queue drains over several ticks, FIFO.
func TestSweepHintsRespectBudget(t *testing.T) {
	const budget = 256
	f, _, sw := sweepFixture(t, 211, 64, SweepConfig{Budget: budget, ChunkKeys: 8}, 1)
	for i := len(f.keys) - 1; i >= 0; i-- {
		sw.NoteSuspect(f.keys[i])
	}
	scrubbed, ticks := 0, 0
	for ; ticks < 16 && scrubbed < sw.Chunks(); ticks++ {
		rep, err := sw.Tick()
		if err != nil {
			t.Fatalf("Tick: %v", err)
		}
		if rep.Msgs > budget {
			t.Fatalf("tick %d spent %d messages past budget %d", ticks, rep.Msgs, budget)
		}
		if rep.Chunks > rep.Priority && len(sw.prio) > 0 {
			t.Fatalf("tick %d took %d cursor chunks while %d were queued", ticks, rep.Chunks-rep.Priority, len(sw.prio))
		}
		scrubbed += rep.Priority
	}
	if scrubbed != sw.Chunks() || len(sw.prio) != 0 || ticks < 2 {
		t.Fatalf("%d hinted chunks: %d scrubbed over %d ticks, queue %v; want all, over more than one tick", sw.Chunks(), scrubbed, ticks, sw.prio)
	}
}

// TestSweepStarvedHintIsCountedNotWedged: a hinted chunk that can never fit
// the budget leaves the queue as starved, and the sweep moves on.
func TestSweepStarvedHintIsCountedNotWedged(t *testing.T) {
	f, _, sw := sweepFixture(t, 212, 32, SweepConfig{Budget: 5, ChunkKeys: 8}, 1)
	sw.NoteSuspect(f.keys[20]) // chunk 2
	rep, err := sw.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if rep.Chunks != 0 || rep.Starved != sw.Chunks() || len(sw.prio) != 0 {
		t.Fatalf("tick: %+v, queue %v; want every chunk starved (the hinted one included) and the queue empty", rep, sw.prio)
	}
	if rep, err = sw.Tick(); err != nil || rep.Starved != sw.Chunks() {
		t.Fatalf("second tick: %+v, %v; want the sweep still turning", rep, err)
	}
}

// TestSweepIntakeUnderConcurrentHints runs a writer goroutine hinting keys
// while the tick loop sweeps and registers more: the intake is the only
// state they share (run under -race), and every hinted chunk is scrubbed
// from the queue once the writer stops.
func TestSweepIntakeUnderConcurrentHints(t *testing.T) {
	f, _, sw := sweepFixture(t, 213, 32, SweepConfig{Budget: 512, ChunkKeys: 8}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			sw.NoteSuspect(f.keys[i%len(f.keys)])
			sw.NoteSuspect(fmt.Sprintf("late-%d", i%4))
		}
	}()
	for tick := 0; tick < 6; tick++ {
		if tick == 3 {
			sw.AddKeys("late-0", "late-1", "late-2", "late-3")
		}
		if _, err := sw.Tick(); err != nil {
			t.Fatalf("Tick: %v", err)
		}
	}
	<-done
	sw.admit()
	for len(sw.prio) > 0 {
		rep, err := sw.Tick()
		if err != nil {
			t.Fatalf("Tick: %v", err)
		}
		if rep.Priority == 0 {
			t.Fatalf("queue %v did not drain", sw.prio)
		}
	}
	if len(sw.intake) != 0 {
		t.Fatalf("intake kept %v after every key was registered", sw.intake)
	}
}
