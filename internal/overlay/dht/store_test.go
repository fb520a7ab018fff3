package dht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// keyTop is the ring-id top bits every write of key files its record under.
func keyTop(key string) uint32 { return idTop(hashID(key)) }

// storeModel drives a store and the map[string][]byte it replaced through
// the same operations and fails on the first difference. It also holds on to
// slices get returned earlier and checks they never change (the log's
// immutability rule), checks the log bound and the reference blocks' shape
// at every step, checks that every record keeps its key's ring-id top bits
// through overwrites, swap-removes, compactions and resets, and keeps the
// record numbering (insertion order as perturbed by swap-removes) that each
// must walk in.
type storeModel struct {
	t           testing.TB
	s           store
	m           map[string][]byte
	order       []string       // keys by record number
	pos         map[string]int // key → record number
	held        [64]heldBytes
	nheld       int
	compactions int
	maxLen      int // the most keys held at once
	crossSwaps  int // deletes whose swap-remove moved a reference between blocks
	emptied     int // deletes that emptied a reference block other than the first
}

type heldBytes struct{ got, want []byte }

func newStoreModel(t testing.TB) *storeModel {
	return &storeModel{t: t, m: make(map[string][]byte), pos: make(map[string]int)}
}

// after runs the checks every mutation shares. dead is the dead byte count
// from before the mutation: it only ever falls when the log is rewritten.
func (c *storeModel) after(op string, dead int) {
	c.t.Helper()
	s := &c.s
	if s.len() != len(c.m) {
		c.t.Fatalf("%s: len %d, model %d", op, s.len(), len(c.m))
	}
	c.maxLen = max(c.maxLen, s.len())
	if used := (c.maxLen + refBlock - 1) / refBlock; len(s.refs) > used {
		c.t.Fatalf("%s: %d reference blocks, but at most %d keys (%d blocks) were ever held", op, len(s.refs), c.maxLen, used)
	}
	for b, blk := range s.refs {
		if len(blk) != cap(blk) || len(blk) > refBlock || len(blk) < min(s.len()-b*refBlock, refBlock) || (b > 0 && len(blk) != refBlock) {
			c.t.Fatalf("%s: reference block %d is %d of %d long (%d keys)", op, b, len(blk), cap(blk), s.len())
		}
	}
	if s.logged > 2*s.live+chunkMax {
		c.t.Fatalf("%s: log holds %d bytes for %d live: over 2 × live + one chunk", op, s.logged, s.live)
	}
	if s.logged-s.live >= dead {
		return
	}
	c.compactions++
	if s.logged != s.live {
		c.t.Fatalf("%s: compaction left %d dead bytes", op, s.logged-s.live)
	}
	allocated, live := 0, 0
	for _, chunk := range s.chunks {
		allocated += cap(chunk)
	}
	for _, v := range c.m {
		live += len(v)
	}
	for k := range c.m {
		live += len(k)
	}
	if s.live != live {
		c.t.Fatalf("%s: store counts %d live bytes, model holds %d", op, s.live, live)
	}
	if allocated > 2*live+chunkMax {
		c.t.Fatalf("%s: compaction allocated %d bytes for %d live", op, allocated, live)
	}
}

func (c *storeModel) put(key string, val []byte) {
	c.t.Helper()
	dead := c.s.logged - c.s.live
	c.s.put(key, keyTop(key), val)
	if _, ok := c.m[key]; !ok {
		c.pos[key] = len(c.order)
		c.order = append(c.order, key)
	}
	c.m[key] = append([]byte(nil), val...)
	c.after("put "+key, dead)
}

func (c *storeModel) del(key string) {
	c.t.Helper()
	dead := c.s.logged - c.s.live
	_, want := c.m[key]
	if got := c.s.del(key); got != want {
		c.t.Fatalf("del %s: reported %v, model %v", key, got, want)
	}
	if n, ok := c.pos[key]; ok {
		last := len(c.order) - 1
		c.order[n] = c.order[last]
		c.pos[c.order[n]] = n
		c.order = c.order[:last]
		if n>>refBlockBits != last>>refBlockBits {
			c.crossSwaps++
		}
		if last >= refBlock && last%refBlock == 0 {
			c.emptied++
		}
	}
	delete(c.pos, key)
	delete(c.m, key)
	c.after("del "+key, dead)
}

func (c *storeModel) get(key string) {
	c.t.Helper()
	got, top, ok := c.s.getTop(key)
	want, wantOK := c.m[key]
	if ok != wantOK || !bytes.Equal(got, want) || c.s.has(key) != wantOK {
		c.t.Fatalf("get %s: %d bytes found=%v, model %d bytes found=%v", key, len(got), ok, len(want), wantOK)
	}
	if ok && top != keyTop(key) {
		c.t.Fatalf("get %s: record filed under ring-id top %#x, want %#x", key, top, keyTop(key))
	}
	if ok {
		if cap(got) != len(got) {
			c.t.Fatalf("get %s: slice has %d spare capacity into the log", key, cap(got)-len(got))
		}
		c.held[c.nheld%len(c.held)] = heldBytes{got: got, want: append([]byte(nil), got...)}
		c.nheld++
	}
}

// sweep compares a full each walk with the model, in record-number order,
// then every held slice with what it read when it was handed out.
func (c *storeModel) sweep() {
	c.t.Helper()
	seen := make(map[string]bool, len(c.m))
	c.s.each(func(key string, top uint32, val []byte) {
		if n := len(seen); n >= len(c.order) || key != c.order[n] {
			c.t.Fatalf("each: record %d is key %s, model numbers it %d", n, key, c.pos[key])
		}
		want, ok := c.m[key]
		if !ok || seen[key] || !bytes.Equal(val, want) {
			c.t.Fatalf("each: key %s (in model %v, seen before %v) carries %d bytes, model %d", key, ok, seen[key], len(val), len(want))
		}
		if top != keyTop(key) {
			c.t.Fatalf("each: key %s filed under ring-id top %#x, want %#x", key, top, keyTop(key))
		}
		seen[key] = true
	})
	if len(seen) != len(c.m) {
		c.t.Fatalf("each: walked %d keys, model holds %d", len(seen), len(c.m))
	}
	for _, h := range c.held {
		if !bytes.Equal(h.got, h.want) {
			c.t.Fatal("bytes a get returned changed afterwards")
		}
	}
}

func TestStoreMatchesMapModel(t *testing.T) {
	t.Run("breathing", func(t *testing.T) {
		steps := 400_000
		if testing.Short() {
			steps = 40_000
		}
		rng := rand.New(rand.NewSource(20))
		c := newStoreModel(t)
		value := func() []byte {
			n := rng.Intn(2001)
			if rng.Intn(5000) == 0 {
				n = chunkMax + 1 + rng.Intn(chunkMax) // a record with a chunk of its own
			}
			v := make([]byte, n)
			rng.Read(v)
			return v
		}
		// The key space breathes: 400 keys grow the index through several
		// doublings, 6 keys drain the store to empty and make most deletes
		// hit the last reference.
		c.run(rng, steps, value, func(step int) (int, int, int) {
			if step/20_000%2 == 1 {
				return 6, 45, 25
			}
			return 400, 45, 25
		})
		if c.compactions < 5 {
			t.Fatalf("only %d compactions in %d steps; the schedule proves nothing about them", c.compactions, steps)
		}
		dead := c.s.logged - c.s.live
		c.s.reset()
		c.m, c.order, c.pos = make(map[string][]byte), nil, make(map[string]int)
		c.after("reset", dead)
		c.put("after-reset", []byte("v"))
		c.sweep()
	})
	t.Run("blocks", func(t *testing.T) {
		steps := 200_000
		if testing.Short() {
			steps = 60_000
		}
		rng := rand.New(rand.NewSource(60))
		c := newStoreModel(t)
		value := func() []byte {
			v := make([]byte, rng.Intn(65))
			rng.Read(v)
			return v
		}
		// 4 500 keys, put-heavy then delete-heavy by turns: the store fills
		// four reference blocks (about 3 700 keys) and drains into the first
		// (about 800), so blocks empty and fill again, and most deletes
		// swap a reference in from another block.
		c.run(rng, steps, value, func(step int) (int, int, int) {
			if step/20_000%2 == 1 {
				return 4_500, 15, 70
			}
			return 4_500, 70, 15
		})
		if c.maxLen <= 3*refBlock || c.crossSwaps < 1_000 || c.emptied < 3 {
			t.Fatalf("held at most %d keys, %d deletes swapped across blocks, %d emptied a block: the schedule proves nothing about blocks",
				c.maxLen, c.crossSwaps, c.emptied)
		}
		t.Logf("at most %d keys; %d deletes swapped across blocks; %d emptied a block", c.maxLen, c.crossSwaps, c.emptied)
	})
}

// run drives steps random operations over keys drawn from the key space
// mix(step) names, with puts and deletes at its two percentages (of the
// rest, 5 points insert and delete at once, which is always the last
// reference, and the others get), sweeping every 997 steps and at the end.
func (c *storeModel) run(rng *rand.Rand, steps int, value func() []byte, mix func(step int) (space, puts, dels int)) {
	c.t.Helper()
	for step := 0; step < steps; step++ {
		space, puts, dels := mix(step)
		key := fmt.Sprintf("key-%d", rng.Intn(space))
		switch op := rng.Intn(100); {
		case op < puts:
			c.put(key, value())
		case op < puts+dels:
			c.del(key)
		case op < puts+dels+5:
			c.put(key, value())
			c.del(key)
		default:
			c.get(key)
		}
		if step%997 == 0 {
			c.sweep()
		}
	}
	c.sweep()
}

// TestRecordPackingLimits round-trips a record at each end of what the
// packed location holds: one starting at offset chunkMax−1, the last byte
// an offset may name, and one larger than chunkMax, which gets a chunk of
// its own and starts at 0.
func TestRecordPackingLimits(t *testing.T) {
	c := newStoreModel(t)
	// Fill records up to the first chunkMax-sized chunk, then that chunk up
	// to its last byte.
	for i := 0; len(c.s.chunks) < chunkDoublings+1 || len(c.s.chunks[chunkDoublings]) < chunkMax-200; i++ {
		c.put(fmt.Sprintf("fill-%d", i), make([]byte, 60))
	}
	// Key "f" and a value that leave one byte: key "e", no value.
	c.put("f", make([]byte, chunkMax-len(c.s.chunks[chunkDoublings])-2))
	if got := len(c.s.chunks[chunkDoublings]); got != chunkMax-1 {
		t.Fatalf("set-up left chunk %d at %d bytes, want %d", chunkDoublings, got, chunkMax-1)
	}
	c.put("e", nil)
	_, n := c.s.find("e", hashKey("e"))
	if r := *c.s.ref(n); r.chunk() != chunkDoublings || r.off() != chunkMax-1 {
		t.Fatalf("record e at chunk %d offset %d, want chunk %d offset %d", r.chunk(), r.off(), chunkDoublings, chunkMax-1)
	}
	big := bytes.Repeat([]byte{7}, 2*chunkMax)
	c.put("big", big)
	_, n = c.s.find("big", hashKey("big"))
	if r := *c.s.ref(n); r.off() != 0 || cap(c.s.chunks[r.chunk()]) != len("big")+len(big) {
		t.Fatalf("record big at offset %d in a chunk of %d bytes, want 0 in one of its own", r.off(), cap(c.s.chunks[r.chunk()]))
	}
	c.put("after-big", []byte("v"))
	for _, key := range []string{"e", "big", "after-big", "f"} {
		c.get(key)
	}
	c.sweep()
}

func TestStoreChunksStartSmall(t *testing.T) {
	// A lightly loaded node must not carry a full-size chunk: 200 keys of
	// 100 B sit in chunks that double from chunkMin, never over twice the bytes.
	var s store
	for i := 0; i < 200; i++ {
		s.put(fmt.Sprintf("key-%03d", i), 0, make([]byte, 100))
	}
	allocated := 0
	for _, chunk := range s.chunks {
		allocated += cap(chunk)
	}
	if allocated > 2*s.live {
		t.Fatalf("%d live bytes sit in %d bytes of chunks", s.live, allocated)
	}
}

func TestStoreReferencesStartSmall(t *testing.T) {
	// A lightly loaded node must not carry a full reference block: 200 keys
	// sit in a first block doubled from slotsMin.
	var s store
	for i := 0; i < 200; i++ {
		s.put(fmt.Sprintf("key-%03d", i), 0, make([]byte, 100))
	}
	if len(s.refs) != 1 || cap(s.refs[0]) >= refBlock || cap(s.refs[0]) > 2*s.len() {
		t.Fatalf("%d references sit in %d blocks, the first of %d (a full block holds %d)", s.len(), len(s.refs), cap(s.refs[0]), refBlock)
	}
}

// TestStoreReferenceBlocksAreNeverCopied: once the first block is full, a
// put that crosses into a new block allocates that block and nothing more
// (besides the block list's own growth and the index's doubling, which it
// may share a put with), no reference moves, and a block emptied by deletes
// is filled again without an allocation.
func TestStoreReferenceBlocksAreNeverCopied(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	blockClass := -1
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for i, c := range ms.BySize {
		if c.Size == refBlock*uint32(unsafe.Sizeof(recRef{})) {
			blockClass = i
		}
	}
	if blockClass < 0 {
		t.Fatalf("no %d-byte size class", refBlock*unsafe.Sizeof(recRef{}))
	}
	var s store
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	// put adds key(i) and returns the objects it allocated, and those of the
	// block's size class; it fails if the put started a log chunk.
	put := func(i int) (objects, blocks uint64) {
		k, chunks := key(i), len(s.chunks)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.put(k, 0, nil)
		runtime.ReadMemStats(&after)
		if len(s.chunks) != chunks {
			t.Fatalf("set-up: put %d started a log chunk", i)
		}
		return after.Mallocs - before.Mallocs, after.BySize[blockClass].Mallocs - before.BySize[blockClass].Mallocs
	}
	for i := 0; i < refBlock; i++ {
		s.put(key(i), 0, nil)
	}
	starts := []*recRef{s.ref(0)}
	for b := 1; b <= 3; b++ {
		list, slots := cap(s.refs), len(s.slots)
		objects, blocks := put(b * refBlock)
		want := uint64(1)
		if cap(s.refs) != list {
			want++
		}
		if len(s.slots) != slots {
			want++
		}
		if blocks != 1 || objects != want {
			t.Errorf("crossing into block %d allocated %d objects, %d of a block's size; want %d and 1", b, objects, blocks, want)
		}
		for i, p := range starts {
			if s.ref(i*refBlock) != p {
				t.Errorf("crossing into block %d moved block %d", b, i)
			}
		}
		starts = append(starts, s.ref(b*refBlock))
		for i := b*refBlock + 1; i < (b+1)*refBlock; i++ {
			s.put(key(i), 0, nil)
		}
	}
	// Empty the last block, then cross into it again.
	for i := 4 * refBlock; i > 3*refBlock; i-- {
		s.del(key(i - 1))
	}
	if objects, _ := put(3 * refBlock); objects != 0 {
		t.Errorf("refilling an emptied block allocated %d objects, want 0", objects)
	}
	if s.ref(0) != starts[0] || s.ref(3*refBlock) != starts[3] {
		t.Error("refilling an emptied block moved a reference")
	}
}

// runStoreScript decodes data into store operations — one opcode byte, one
// key byte, and for a put two length bytes — and runs them against the model.
func runStoreScript(t testing.TB, data []byte) {
	c := newStoreModel(t)
	fill := byte(0)
	for len(data) >= 2 {
		op, key := data[0], fmt.Sprintf("k%d", data[1]%48)
		data = data[2:]
		switch op % 8 {
		case 0, 1, 2:
			if len(data) < 2 {
				return
			}
			n := int(binary.LittleEndian.Uint16(data)) % 3000
			if op == 0xF0 {
				n += chunkMax // a record larger than a chunk
			}
			data = data[2:]
			fill++
			c.put(key, bytes.Repeat([]byte{fill}, n))
		case 3, 4:
			c.del(key)
		case 5, 6:
			c.get(key)
		default:
			c.sweep()
		}
	}
	c.sweep()
}

// FuzzStoreOps runs arbitrary scripts against the model; the committed corpus
// (testdata/fuzz/FuzzStoreOps) holds the shapes the store's corners need:
// overwrites up to a log rewrite, deletes that swap the last reference in,
// records larger than a chunk, and small records backfilling a large one's gap.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10, 0, 5, 1, 3, 1, 5, 1, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runStoreScript(t, data) })
}

// mapArena is the node store as it was before the log — a Go map whose
// values are three-index slices of one arena per 256-key envelope — kept as
// BenchmarkNodeStore's reference arm.
type mapArena struct {
	m     map[string][]byte
	arena []byte
}

func (a *mapArena) put(key string, val []byte) {
	if cap(a.arena)-len(a.arena) < len(val) {
		a.arena = make([]byte, 0, 256*len(val))
	}
	off := len(a.arena)
	a.arena = append(a.arena, val...)
	a.m[key] = a.arena[off:len(a.arena):len(a.arena)]
}

var storeSink int

// BenchmarkNodeStore prices the node store against the map it replaced at
// one loaded node's size: 20 k keys of 300 B. put-fresh builds a table from
// empty (growth included), put-overwrite rewrites a full one (the store's
// compactions included), each is one full walk.
func BenchmarkNodeStore(b *testing.B) {
	const keys, valueLen = 20_000, 300
	present, absent := make([]string, keys), make([]string, keys)
	for i := range present {
		present[i] = fmt.Sprintf("user/%07d/post/%03d", i*37, i%500)
		absent[i] = fmt.Sprintf("user/%07d/gone/%03d", i*37, i%500)
	}
	val := bytes.Repeat([]byte{0xAB}, valueLen)
	fullStore := func() *store {
		s := &store{}
		for _, k := range present {
			s.put(k, 0, val)
		}
		return s
	}
	fullMap := func() *mapArena {
		a := &mapArena{m: make(map[string][]byte)}
		for _, k := range present {
			a.put(k, val)
		}
		return a
	}
	b.Run("put-fresh/store", func(b *testing.B) {
		b.ReportAllocs()
		s := &store{}
		for i := 0; i < b.N; i++ {
			if i%keys == 0 {
				s = &store{}
			}
			s.put(present[i%keys], 0, val)
		}
	})
	b.Run("put-fresh/map", func(b *testing.B) {
		b.ReportAllocs()
		a := &mapArena{}
		for i := 0; i < b.N; i++ {
			if i%keys == 0 {
				a = &mapArena{m: make(map[string][]byte)}
			}
			a.put(present[i%keys], val)
		}
	})
	b.Run("put-overwrite/store", func(b *testing.B) {
		s := fullStore()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.put(present[i%keys], 0, val)
		}
	})
	b.Run("put-overwrite/map", func(b *testing.B) {
		a := fullMap()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.put(present[i%keys], val)
		}
	})
	for _, arm := range []struct {
		name string
		keys []string
	}{{"get-hit", present}, {"get-miss", absent}} {
		b.Run(arm.name+"/store", func(b *testing.B) {
			s := fullStore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := s.get(arm.keys[i%keys])
				storeSink += len(v)
			}
		})
		b.Run(arm.name+"/map", func(b *testing.B) {
			a := fullMap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				storeSink += len(a.m[arm.keys[i%keys]])
			}
		})
	}
	b.Run("each/store", func(b *testing.B) {
		s := fullStore()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.each(func(key string, _ uint32, val []byte) { storeSink += len(key) + len(val) })
		}
	})
	b.Run("each/map", func(b *testing.B) {
		a := fullMap()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for key, val := range a.m {
				storeSink += len(key) + len(val)
			}
		}
	})
}
