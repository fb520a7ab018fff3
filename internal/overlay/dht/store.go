package dht

import (
	"hash/maphash"
	"unsafe"
)

// store is one node's key → value table, laid out so that the collector
// sees a handful of pointer-free objects however many keys the node holds:
//
//   - the record log: append-only byte chunks holding key ‖ value per record.
//     Log bytes are immutable once written — an overwrite appends a new
//     record and leaves the old one dead, compaction copies into fresh chunks
//     and reset drops the chunks without reusing them — so a slice get
//     returned, or a key string each handed out, stays valid and unchanged
//     for as long as someone holds it, with or without the node lock;
//   - refs: one 16-byte record reference per live key, dense, in insertion
//     order, swap-removed on delete, kept in blocks of refBlock references
//     (the first nrefs slots are live). The first block doubles up to
//     refBlock; every later one is allocated full once and never moved, and
//     a block emptied by deletes is kept for the next insert. Besides the
//     record's place a reference keeps the top 32 bits of the key's ring id,
//     which the write carried in, so heal files a copy on the ring without
//     hashing its key;
//   - slots: an open-addressing, linear-probe index of 8-byte slots, each the
//     low 32 bits of the key's hash and the record's reference number plus
//     one (zero is the empty slot). Growing re-seats slots from the hash bits
//     they carry and never touches a key.
//
// Records are numbered in refs order. Only a removal renumbers one (del's
// swap-remove, reset), and gen counts removals, so while gen stands a record
// number keeps naming the same key: a put either appends a new number or
// rewrites an existing number's record in place.
//
// put copies key and value into the log, so callers hand over their own
// slices without copying first; whatever leaves a node is copied by the
// handler that sends it. Every put names the key's ring-id top bits
// (idTop(hashID(key))), which the store keeps and never checks. All methods
// run under the owning node's mutex.
type store struct {
	chunks [][]byte
	refs   [][]recRef // blocks; reference i is refs[i/refBlock][i%refBlock]
	nrefs  int        // live references
	slots  []uint64
	live   int    // bytes of the records refs points at
	logged int    // bytes written into chunks: live plus dead
	spare  int    // the closed chunk with the most room left, as far as room saw
	gen    uint64 // removals: del and reset each add one (heal's memo reads it)
}

// recRef locates one record and files it on the ring: with chunk and off
// packed into loc, chunks[chunk][off:off+klen] is the key and the vlen bytes
// after it the value; top is the top 32 bits of the key's ring id. An
// offset fits offBits: a record starts inside its chunk, and every chunk is
// at most chunkMax bytes except one holding a single larger record, which
// starts at 0 (an empty record reads nothing and is placed at 0 too). The
// chunk number takes the other 32−offBits bits: a log of 4 GiB.
type recRef struct {
	loc, top, klen, vlen uint32
}

func (r recRef) chunk() uint32 { return r.loc >> offBits }
func (r recRef) off() uint32   { return r.loc & (1<<offBits - 1) }
func (r recRef) size() int     { return int(r.klen + r.vlen) }

// idTop is the part of a ring id a record keeps.
func idTop(kid uint64) uint32 { return uint32(kid >> 32) }

// Layout constants: fixed, not tunable. CHANGES.md (PR 20) has the
// BenchmarkNodeStore rows (20 k keys of 300 B) and the feed-private heap
// readings behind each.
//
//   - Chunks double from chunkMin to chunkMax, so a node holding a few
//     hundred keys carries a tail of a few kilobytes. put-fresh costs the
//     same from 16 KB to 256 KB chunks, so the cap is set by memory: a node
//     wastes half a chunk of tail on average and may keep a chunk of dead
//     bytes. feed-private's live heap (48 nodes of about 500 KB each) reads
//     59.3 MB at 64 KB, 58.7 at 32 KB and at 16 KB, 59.1 at 8 KB.
//   - The index doubles at 3/4 full. At 1/2 the 20 k-key table is twice the
//     size (+26 B per put-fresh) for a get-miss 8 ns faster and an equal
//     get-hit.
//   - References sit in 16 KiB blocks (refBlock of them, a small size
//     class): past the first block none is ever copied, and a node under
//     refBlock keys holds at most twice the references it uses. A slice
//     doubled by copying allocates every reference again at each doubling
//     and leaves the old array to the collector; 32 KiB blocks cost as many
//     allocations and slightly more bytes.
const (
	chunkMinBits   = 10
	chunkDoublings = 5
	chunkMin       = 1 << chunkMinBits
	chunkMax       = chunkMin << chunkDoublings
	offBits        = chunkMinBits + chunkDoublings // chunkMax == 1<<offBits
	slotsMin       = 16
	refBlockBits   = 10
	refBlock       = 1 << refBlockBits
)

// storeSeed keys the index hash. It differs between processes, which moves
// nothing observable: the hash picks probe positions only, and each walks
// refs.
var storeSeed = maphash.MakeSeed()

func hashKey(key string) uint32 { return uint32(maphash.String(storeSeed, key)) }

func (s *store) len() int { return s.nrefs }

// ref returns reference i (i < len()).
func (s *store) ref(i int) *recRef { return &s.refs[i>>refBlockBits][i&(refBlock-1)] }

// pushRef appends r as reference number len(). Only the first block grows
// by copying (doubling from slotsMin); a later block is made full-size when
// the references first reach it and reused after deletes empty it.
func (s *store) pushRef(r recRef) {
	b, i := s.nrefs>>refBlockBits, s.nrefs&(refBlock-1)
	if b == len(s.refs) {
		size := refBlock
		if b == 0 {
			size = slotsMin
		}
		s.refs = append(s.refs, make([]recRef, size))
	}
	if i == len(s.refs[b]) { // only the first block is ever short
		grown := make([]recRef, 2*i)
		copy(grown, s.refs[b])
		s.refs[b] = grown
	}
	s.refs[b][i] = r
	s.nrefs++
}

// reset drops every record, and counts as a removal. The chunks are
// released, not reused: bytes handed out earlier stay intact.
func (s *store) reset() { *s = store{gen: s.gen + 1} }

func (s *store) keyBytes(r recRef) []byte {
	off := r.off()
	return s.chunks[r.chunk()][off : off+r.klen]
}

func (s *store) value(r recRef) []byte {
	lo, hi := r.off()+r.klen, r.off()+r.klen+r.vlen
	return s.chunks[r.chunk()][lo:hi:hi]
}

// record returns record i, in each's order: its key (a string over the log
// bytes, as each hands it out) and its ring-id top bits.
func (s *store) record(i int) (key string, top uint32) {
	r := *s.ref(i)
	k := s.keyBytes(r)
	return unsafe.String(unsafe.SliceData(k), len(k)), r.top
}

// find returns the slot and the reference number of key's record, or -1, -1.
func (s *store) find(key string, h uint32) (slot, ref int) {
	if len(s.slots) == 0 {
		return -1, -1
	}
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl == 0 {
			return -1, -1
		}
		if uint32(sl>>32) == h {
			n := int(uint32(sl)) - 1
			if string(s.keyBytes(*s.ref(n))) == key {
				return int(i), n
			}
		}
	}
}

// get returns the stored bytes themselves: immutable, so the caller may read
// them after releasing the node lock, and must copy before handing them to
// anyone who might write.
func (s *store) get(key string) ([]byte, bool) {
	val, _, ok := s.getTop(key)
	return val, ok
}

// getTop is get that also returns the record's ring-id top bits.
func (s *store) getTop(key string) ([]byte, uint32, bool) {
	return s.lookup(key, hashKey(key))
}

// lookup is getTop for a caller that has the key's index hash h
// (hashKey(key)) already.
func (s *store) lookup(key string, h uint32) ([]byte, uint32, bool) {
	_, n := s.find(key, h)
	if n < 0 {
		return nil, 0, false
	}
	r := *s.ref(n)
	return s.value(r), r.top, true
}

func (s *store) has(key string) bool {
	_, n := s.find(key, hashKey(key))
	return n >= 0
}

// put stores a copy of val under a copy of key, filed under top, the top
// bits of key's ring id.
func (s *store) put(key string, top uint32, val []byte) {
	h := hashKey(key)
	_, n := s.find(key, h)
	need := len(key) + len(val)
	ci, loc := s.place(need)
	c := s.chunks[ci]
	r := recRef{loc: loc, top: top, klen: uint32(len(key)), vlen: uint32(len(val))}
	s.chunks[ci] = append(append(c, key...), val...)
	s.live += need
	s.logged += need
	if n >= 0 {
		s.live -= s.ref(n).size()
		*s.ref(n) = r
		s.compactIfMostlyDead()
		return
	}
	s.pushRef(r)
	if 4*s.nrefs > 3*len(s.slots) {
		s.growIndex()
	}
	s.seat(uint64(h)<<32 | uint64(s.nrefs))
}

// del removes key and reports whether it was present.
func (s *store) del(key string) bool {
	slot, n := s.find(key, hashKey(key))
	if n < 0 {
		return false
	}
	s.unseat(uint32(slot))
	s.gen++
	s.live -= s.ref(n).size()
	// Swap-remove: the last reference takes the freed number, and the slot
	// that named it is renumbered (found through its key's hash).
	last := s.nrefs - 1
	if n != last {
		moved := *s.ref(last)
		h := uint32(maphash.Bytes(storeSeed, s.keyBytes(moved)))
		mask := uint32(len(s.slots) - 1)
		i := h & mask
		for uint32(s.slots[i]) != uint32(last+1) {
			i = (i + 1) & mask
		}
		s.slots[i] = uint64(h)<<32 | uint64(n+1)
		*s.ref(n) = moved
	}
	s.nrefs = last // the slot stays in its block for the next put
	s.compactIfMostlyDead()
	return true
}

// each calls fn for every record, in insertion order as perturbed by del's
// swap-removes — a deterministic order, unlike a map's, and every consumer
// sorts what it keeps. The key is a string over the log bytes themselves
// (no allocation per key): sound because those bytes are never written
// again, and the string keeps its chunk reachable if it outlives the walk.
// top is the record's ring-id top bits, so fn may be another store's put.
// fn must not modify the store.
func (s *store) each(fn func(key string, top uint32, val []byte)) {
	for i := range s.nrefs {
		key, top := s.record(i)
		fn(key, top, s.value(*s.ref(i)))
	}
}

// place returns the chunk the next need bytes go into (room) and the packed
// location they start at (recRef).
func (s *store) place(need int) (ci int, loc uint32) {
	ci = s.room(need)
	if ci >= 1<<(32-offBits) {
		panic("dht: node store log over 4 GiB")
	}
	off := len(s.chunks[ci])
	if need == 0 {
		off = 0
	}
	return ci, uint32(ci)<<offBits | uint32(off)
}

// room returns the number of the chunk the next need bytes go into: the
// log's last chunk; else the spare, so that a small record fills the gap a
// large one left behind when it did not fit; else a new chunk, twice the
// size of the one before up to chunkMax (a record larger than that gets a
// chunk of its own size).
func (s *store) room(need int) int {
	last := len(s.chunks) - 1
	if last >= 0 {
		lastFree := cap(s.chunks[last]) - len(s.chunks[last])
		if lastFree >= need {
			return last
		}
		spareFree := cap(s.chunks[s.spare]) - len(s.chunks[s.spare])
		if spareFree >= need {
			return s.spare
		}
		if lastFree > spareFree {
			s.spare = last
		}
	}
	size := chunkMin << min(len(s.chunks), chunkDoublings)
	s.chunks = append(s.chunks, make([]byte, 0, max(size, need)))
	return last + 1
}

// compactIfMostlyDead rewrites the live records into fresh chunks once dead
// bytes outweigh both the live bytes and one full chunk, which keeps the log
// at or under 2 × live + chunkMax bytes and a rewrite's cost under the bytes
// that died to cause it. The old chunks are left to whoever still reads
// from them.
func (s *store) compactIfMostlyDead() {
	dead := s.logged - s.live
	if dead <= s.live || dead <= chunkMax {
		return
	}
	old := s.chunks
	s.chunks, s.spare = nil, 0
	for i := range s.nrefs {
		r := s.ref(i)
		ci, loc := s.place(r.size())
		s.chunks[ci] = append(s.chunks[ci], old[r.chunk()][r.off():int(r.off())+r.size()]...)
		r.loc = loc
	}
	s.logged = s.live
}

// seat places a slot at the first free position of its probe sequence.
func (s *store) seat(sl uint64) {
	mask := uint32(len(s.slots) - 1)
	i := uint32(sl>>32) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = sl
}

// growIndex doubles the index, re-seating every slot from the hash bits it
// carries.
func (s *store) growIndex() {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), slotsMin))
	for _, sl := range old {
		if sl != 0 {
			s.seat(sl)
		}
	}
}

// unseat empties slot i and closes the gap: each later slot of the run moves
// back when its home position lies at or before the gap, so no probe
// sequence is cut and no tombstone is left.
func (s *store) unseat(i uint32) {
	mask := uint32(len(s.slots) - 1)
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		home := uint32(s.slots[j]>>32) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}
