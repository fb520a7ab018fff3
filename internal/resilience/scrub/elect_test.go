package scrub

import (
	"bytes"
	"slices"
	"testing"

	"godosn/internal/overlay"
)

// TestElectKey pins the election's one freshness rule on fetched copies:
// the highest verified version wins, an older verified copy is missing
// (repaired, never condemned), and majority, then smallest leaf, decide
// only among copies of the winning version.
func TestElectKey(t *testing.T) {
	const key = "post/alice/7"
	v1 := SealVersion(key, 1, []byte("first"))
	v2 := SealVersion(key, 2, []byte("second"))
	v2b := SealVersion(key, 2, []byte("second, equivocated"))
	a, b := Seal(key, []byte("a")), Seal(key, []byte("b"))
	if bytes.Compare(leafOf(key, a), leafOf(key, b)) > 0 {
		a, b = b, a // a is the copy with the smaller leaf
	}
	flipped := append([]byte(nil), v2...)
	flipped[len(versionMagic)+versionLen-1] ^= 0x01 // version 2 -> 3 under the checksum of 2

	for _, tc := range []struct {
		name    string
		copies  [][]byte // nil: the replica answered not-found
		want    []copyState
		winner  []byte // nil: no copy verified
		version uint64
	}{
		{
			name:   "flipped version byte is condemned",
			copies: [][]byte{v2, flipped, v2},
			want:   []copyState{copyCanonical, copyCondemned, copyCanonical}, winner: v2, version: 2,
		},
		{
			name:   "replayed older version loses to a lone newer copy",
			copies: [][]byte{v1, v2, v1},
			want:   []copyState{copyMissing, copyCanonical, copyMissing}, winner: v2, version: 2,
		},
		{
			name:   "older version loses beside a missing copy",
			copies: [][]byte{nil, v1, v2},
			want:   []copyState{copyMissing, copyMissing, copyCanonical}, winner: v2, version: 2,
		},
		{
			name:   "newer version beats an unversioned majority",
			copies: [][]byte{a, a, v1},
			want:   []copyState{copyMissing, copyMissing, copyCanonical}, winner: v1, version: 1,
		},
		{
			name:   "equal versions elect by majority",
			copies: [][]byte{v2b, v2, v2b},
			want:   []copyState{copyCanonical, copyCondemned, copyCanonical}, winner: v2b, version: 2,
		},
		{
			name:   "equal versions tie on the smallest leaf",
			copies: [][]byte{b, a},
			want:   []copyState{copyCondemned, copyCanonical}, winner: a, version: 0,
		},
		{
			name:   "corrupt copies beside an older one leave it the winner",
			copies: [][]byte{flipped, v1},
			want:   []copyState{copyCondemned, copyCanonical}, winner: v1, version: 1,
		},
		{
			name:   "nothing verifies",
			copies: [][]byte{flipped, v1[:len(v1)-1]},
			want:   []copyState{copyCondemned, copyCondemned},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newDrillScratch(1, len(tc.copies))
			o := sc.outcome(0, key)
			for ri, c := range tc.copies {
				if c == nil {
					o.states[ri] = copyMissing
				} else {
					o.states[ri], sc.values[ri] = copyHeld, c
				}
			}
			electKey(&o, sc.values, sc.held)
			if !slices.Equal(o.states, tc.want) {
				t.Fatalf("states %v, want %v", o.states, tc.want)
			}
			if tc.winner == nil {
				if o.found || !o.failed {
					t.Fatalf("found=%v failed=%v with no verified copy", o.found, o.failed)
				}
				return
			}
			if !o.found || o.failed || !bytes.Equal(o.canonical, tc.winner) || o.version != tc.version {
				t.Fatalf("elected %q at version %d (found=%v failed=%v), want %q at %d",
					o.canonical, o.version, o.found, o.failed, tc.winner, tc.version)
			}
		})
	}
}

// TestRecheck pins how a condemned copy's refetch is judged against an
// election won at version 2: the winner is canonical, an older version
// missing, a newer one (a write that landed during the pass) neither judged
// nor repaired, and anything else stays condemned.
func TestRecheck(t *testing.T) {
	const key = "post/alice/7"
	v2 := SealVersion(key, 2, []byte("second"))
	for _, tc := range []struct {
		name    string
		refetch []byte
		want    copyState
	}{
		{"the winner", v2, copyCanonical},
		{"an older version", SealVersion(key, 1, []byte("first")), copyMissing},
		{"a newer version", SealVersion(key, 3, []byte("third")), copyUnreachable},
		{"another copy at the winning version", SealVersion(key, 2, []byte("other")), copyCondemned},
		{"a corrupt copy", v2[:len(v2)-1], copyCondemned},
	} {
		sc := newDrillScratch(1, 2)
		o := sc.outcome(0, key)
		o.states[0], o.states[1] = copyHeld, copyHeld
		sc.values[0], sc.values[1] = v2, v2[:len(v2)-1]
		electKey(&o, sc.values, sc.held)
		o.recheck(1, tc.refetch)
		if o.states[1] != tc.want {
			t.Fatalf("%s: recheck left state %v, want %v", tc.name, o.states[1], tc.want)
		}
	}
}

func leafOf(key string, v []byte) []byte {
	leaf := overlay.CopyLeaf(key, v, true)
	return leaf[:]
}

// TestOlderVersionJudgesNobody runs whole passes, batched and per-key, over
// a replica set where one holder has the newest version and two kept the
// previous one: the pass repairs both to the newest, counts them missing,
// condemns nothing and gives the stale holders no verdict. One stale copy
// is garbled on its first read, so it is condemned until the recheck finds
// it verified at the older version.
func TestOlderVersionJudgesNobody(t *testing.T) {
	for _, perKey := range []bool{false, true} {
		kv := &stubBatchKV{
			replicas: []string{"r0", "r1", "r2"},
			data:     map[string]map[string][]byte{"r0": {}, "r1": {}, "r2": {}},
			garbled:  map[string]int{"r2": 1},
		}
		const key = "k0"
		old, fresh := SealVersion(key, 4, []byte("old")), SealVersion(key, 5, []byte("fresh"))
		kv.data["r0"][key], kv.data["r1"][key], kv.data["r2"][key] = old, fresh, old
		cfg := DefaultConfig("c")
		cfg.PerKey = perKey
		s := New(kv, cfg)
		verdicts := map[string]bool{}
		s.SetVerdict(func(node string, ok bool) { verdicts[node] = ok })
		rep, err := s.Scrub([]string{key})
		if err != nil {
			t.Fatalf("perKey=%v: Scrub: %v", perKey, err)
		}
		if rep.CorruptCopies != 0 || rep.MissingCopies != 2 || rep.RepairedWrites != 2 || rep.DivergentKeys != 1 {
			t.Fatalf("perKey=%v: corrupt=%d missing=%d repaired=%d divergent=%d, want 0/2/2/1",
				perKey, rep.CorruptCopies, rep.MissingCopies, rep.RepairedWrites, rep.DivergentKeys)
		}
		if len(verdicts) != 1 || !verdicts["r1"] {
			t.Fatalf("perKey=%v: verdicts %v, want only r1 clean", perKey, verdicts)
		}
		for _, r := range kv.replicas {
			if !bytes.Equal(kv.data[r][key], fresh) {
				t.Fatalf("perKey=%v: %s holds %q after the pass, want the newest version", perKey, r, kv.data[r][key])
			}
		}
	}
}
