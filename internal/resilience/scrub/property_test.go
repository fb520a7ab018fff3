package scrub

import (
	"bytes"
	"fmt"
	"testing"

	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/crypto/symmetric"
	"godosn/internal/overlay/dht"
	"godosn/internal/overlay/simnet"
	"godosn/internal/resilience"
	"godosn/internal/social/identity"
	"godosn/internal/social/privacy"
)

// This property-style sweep closes the loop between the paper's two pillars:
// data privacy (the group encryption schemes of Table I) and data integrity
// (sealed records + verified reads + the scrubber). For every scheme and
// every fault mode, a group post is stored on the DHT with exactly one
// corrupted replica, and the test proves the single invariant that matters:
// the reader either gets the exact honest bytes or an error — never silently
// corrupted content — and the corruption is detected (and, for stored rot,
// repaired).
//
// Following the repo convention, envelopes stay in memory (the simulated
// network ships sizes, not ciphertext): each scheme encrypts a symmetric
// data key, and the replicated bytes are the symmetric ciphertext of the
// post sealed as a record. Integrity protection is therefore independent of
// which scheme guards the data key — exactly the layering the test asserts.

// propertySchemes are the four schemes the sweep covers.
func propertySchemes(t *testing.T, reg *identity.Registry, members []*identity.User) map[string]privacy.Group {
	t.Helper()
	out := make(map[string]privacy.Group)

	owner, err := pubkey.NewSigningKeyPair()
	if err != nil {
		t.Fatalf("NewSigningKeyPair: %v", err)
	}
	hybrid, err := privacy.NewHybridGroup("prop-hybrid", reg, owner)
	if err != nil {
		t.Fatalf("NewHybridGroup: %v", err)
	}
	out["hybrid"] = hybrid

	out["public-key"] = privacy.NewPublicKeyGroup("prop-pk", reg)

	auth, err := abe.NewAuthority()
	if err != nil {
		t.Fatalf("abe.NewAuthority: %v", err)
	}
	abeGroup, err := privacy.NewABEGroup("prop-abe", auth, "(member)")
	if err != nil {
		t.Fatalf("NewABEGroup: %v", err)
	}
	out["abe"] = abeGroup

	pkg, err := ibe.NewPKG()
	if err != nil {
		t.Fatalf("ibe.NewPKG: %v", err)
	}
	out["ibbe"] = privacy.NewIBBEGroup("prop-ibbe", pkg)

	for _, g := range out {
		for _, m := range members {
			if err := g.Add(m.Name); err != nil {
				t.Fatalf("Add(%s): %v", m.Name, err)
			}
		}
	}
	return out
}

func TestSingleCorruptReplicaAlwaysDetectedOrRepaired(t *testing.T) {
	reg := identity.NewRegistry()
	var members []*identity.User
	for i := 0; i < 4; i++ {
		u, err := identity.NewUser(fmt.Sprintf("member-%d", i))
		if err != nil {
			t.Fatalf("NewUser: %v", err)
		}
		if err := reg.Register(u); err != nil {
			t.Fatalf("Register: %v", err)
		}
		members = append(members, u)
	}
	groups := propertySchemes(t, reg, members)
	reader := members[0]

	faults := []string{"bit-rot", "bit-flip", "truncate", "replay", "equivocate"}
	schemes := []string{"hybrid", "public-key", "abe", "ibbe"}
	for si, scheme := range schemes {
		for fi, fault := range faults {
			t.Run(scheme+"/"+fault, func(t *testing.T) {
				seed := int64(7000 + si*100 + fi)
				runPropertyCase(t, groups[scheme], reader, fault, seed)
			})
		}
	}
}

func runPropertyCase(t *testing.T, g privacy.Group, reader *identity.User, fault string, seed int64) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: seed})
	names := make([]simnet.NodeID, 16)
	for i := range names {
		names[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
	}
	d, err := dht.New(net, names, dht.Config{ReplicationFactor: 3})
	if err != nil {
		t.Fatalf("dht.New: %v", err)
	}
	cfg := resilience.DefaultConfig(seed)
	cfg.Verify = Check
	kv := resilience.Wrap(d, cfg)
	client := string(names[0])

	// The scheme guards the data key; the network carries the sealed
	// symmetric ciphertext.
	plaintext := []byte("group post: " + g.Name() + " under " + fault)
	dataKey, err := symmetric.NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	env, err := g.Encrypt(dataKey)
	if err != nil {
		t.Fatalf("Encrypt(dataKey): %v", err)
	}
	const key = "post/prop-1"
	content, err := symmetric.Seal(dataKey, plaintext, []byte(key))
	if err != nil {
		t.Fatalf("symmetric.Seal: %v", err)
	}
	record := Seal(key, content)
	if _, err := kv.Store(client, key, record); err != nil {
		t.Fatalf("Store: %v", err)
	}

	// Corrupt exactly one replica — the primary, so the read path must
	// actually confront the fault.
	replicas, _, err := d.ReplicasFor(client, key)
	if err != nil {
		t.Fatalf("ReplicasFor: %v", err)
	}
	victim := replicas[0]
	injected := 0
	switch fault {
	case "bit-rot":
		if !d.CorruptStored(victim, key, func(b []byte) []byte {
			b[len(b)/2] ^= 0x08
			return b
		}) {
			t.Fatalf("victim %s holds no copy", victim)
		}
		injected = 1
	case "replay":
		// Prime the replayer's cache with a fetch of a DIFFERENT key it
		// holds, so replayed answers carry the wrong key's record — the
		// cross-key shape the record's key binding defeats.
		other := ""
		for i := 0; i < 64 && other == ""; i++ {
			cand := fmt.Sprintf("decoy%d", i)
			rec := Seal(cand, []byte("decoy"))
			if _, err := kv.Store(client, cand, rec); err != nil {
				t.Fatalf("decoy store: %v", err)
			}
			if d.Holds(victim, cand) {
				other = cand
			}
		}
		if other == "" {
			t.Fatal("no decoy key landed on the victim")
		}
		if err := net.SetByzantine(simnet.NodeID(victim), simnet.ByzantineConfig{Mode: simnet.ByzReplay, Rate: 1, Seed: seed}); err != nil {
			t.Fatalf("SetByzantine: %v", err)
		}
		if _, _, err := d.LookupFrom(client, other, victim); err != nil {
			t.Fatalf("priming fetch: %v", err)
		}
	default:
		mode := map[string]simnet.ByzMode{
			"bit-flip":   simnet.ByzBitFlip,
			"truncate":   simnet.ByzTruncate,
			"equivocate": simnet.ByzEquivocate,
		}[fault]
		if err := net.SetByzantine(simnet.NodeID(victim), simnet.ByzantineConfig{Mode: mode, Rate: 1, Seed: seed}); err != nil {
			t.Fatalf("SetByzantine: %v", err)
		}
	}

	// Detect-or-fail, end to end: every read that succeeds must decrypt to
	// the exact plaintext through the scheme.
	for i := 0; i < 6; i++ {
		got, _, err := kv.Lookup(client, key)
		if err != nil {
			t.Fatalf("lookup %d failed despite two honest replicas: %v", i, err)
		}
		if !bytes.Equal(got, record) {
			t.Fatalf("lookup %d surfaced corrupted record bytes", i)
		}
		openedContent, err := Open(key, got)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		keyBytes, err := g.Decrypt(reader, env)
		if err != nil {
			t.Fatalf("scheme decrypt: %v", err)
		}
		gotPlain, err := symmetric.Open(symmetric.Key(keyBytes), openedContent, []byte(key))
		if err != nil {
			t.Fatalf("symmetric.Open: %v", err)
		}
		if !bytes.Equal(gotPlain, plaintext) {
			t.Fatalf("decrypted plaintext mismatch: %q", gotPlain)
		}
	}

	// The fault was real and was detected somewhere: by the read path
	// (rejected replies) or by the scrubber below.
	scr := New(d, DefaultConfig(client))
	var condemned []string
	scr.SetVerdict(func(node string, ok bool) {
		if !ok {
			condemned = append(condemned, node)
		}
	})
	rep, err := scr.Scrub([]string{key})
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	detected := kv.Metrics().CorruptReads + rep.CorruptCopies
	if injected+net.CorruptedReplies() == 0 {
		t.Fatal("fault injection produced no corruption; the case proves nothing")
	}
	if detected == 0 {
		t.Fatalf("corruption occurred (%d wire, %d stored) but was never detected", net.CorruptedReplies(), injected)
	}
	if rep.Failed != 0 {
		t.Fatalf("scrub failed on %d keys; one corrupt replica must not defeat majority election", rep.Failed)
	}
	// Stored rot must also be repaired: the victim's copy verifies again.
	// (Repaired can exceed 1: the read path quarantines the rot-serving
	// victim, placement routes around it, and the scrubber also populates
	// the replacement replica.)
	if fault == "bit-rot" {
		if rep.RepairedWrites < 1 {
			t.Fatalf("repaired = %d, want >= 1", rep.RepairedWrites)
		}
		v, _, err := d.LookupFrom(client, key, victim)
		if err != nil || Check(key, v) != nil {
			t.Fatalf("rotted copy not repaired: %v / %v", err, Check(key, v))
		}
		if len(condemned) != 1 || condemned[0] != victim {
			t.Fatalf("condemned %v, want exactly the victim", condemned)
		}
	}
}
