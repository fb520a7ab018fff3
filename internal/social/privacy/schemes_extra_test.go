package privacy

import (
	"bytes"
	"testing"

	"godosn/internal/crypto/pubkey"
)

func TestHybridACLProofs(t *testing.T) {
	// Frientegrity's PAD-backed ACLs: an untrusted replica proves
	// membership answers against the owner-signed root.
	f := newFixture(t, "alice", "bob", "carol")
	owner, err := pubkey.NewSigningKeyPair()
	if err != nil {
		t.Fatalf("NewSigningKeyPair: %v", err)
	}
	g, err := NewHybridGroup("friends", f.registry, owner)
	if err != nil {
		t.Fatalf("NewHybridGroup: %v", err)
	}
	g.Add("alice")
	g.Add("bob")

	root, sig := g.ACLRoot()
	vk := owner.Verification()

	// Positive proof for a member.
	proof := g.ProveMembership("alice")
	if !proof.Present {
		t.Fatal("member proved absent")
	}
	if err := VerifyMembership(root, sig, vk, "alice", proof); err != nil {
		t.Fatalf("VerifyMembership(alice): %v", err)
	}
	// Negative proof for a non-member.
	proof = g.ProveMembership("carol")
	if proof.Present {
		t.Fatal("non-member proved present")
	}
	if err := VerifyMembership(root, sig, vk, "carol", proof); err != nil {
		t.Fatalf("VerifyMembership(carol): %v", err)
	}

	// A replica cannot lie: presenting alice's proof for mallory fails.
	proof = g.ProveMembership("alice")
	if err := VerifyMembership(root, sig, vk, "mallory", proof); err == nil {
		t.Fatal("mismatched proof verified")
	}
	// Stale root signatures are rejected after membership changes.
	g.Add("carol")
	newRoot, newSig := g.ACLRoot()
	if newRoot == root {
		t.Fatal("ACL root unchanged after Add")
	}
	proof = g.ProveMembership("carol")
	if err := VerifyMembership(root, sig, vk, "carol", proof); err == nil {
		t.Fatal("new proof verified against stale root")
	}
	if err := VerifyMembership(newRoot, newSig, vk, "carol", proof); err != nil {
		t.Fatalf("fresh root: %v", err)
	}
	// Forged signature rejected.
	mallory, _ := pubkey.NewSigningKeyPair()
	forgedSig := mallory.Sign(newRoot[:])
	if err := VerifyMembership(newRoot, forgedSig, vk, "carol", proof); err == nil {
		t.Fatal("forged root signature verified")
	}
}

func TestSubstitutionDictionarySwap(t *testing.T) {
	// The public dictionary holds atoms by index; each index resolves to
	// exactly the atom put there until it is deleted.
	dict := NewDictionary()
	dict.Put(100, []byte("alice-city:Ankara"))
	dict.Put(200, []byte("bob-city:Izmir"))
	a, _ := dict.Get(100)
	b, _ := dict.Get(200)
	if string(a) != "alice-city:Ankara" || string(b) != "bob-city:Izmir" {
		t.Fatalf("atoms %q / %q", a, b)
	}
	if dict.Len() != 2 {
		t.Fatalf("Len = %d", dict.Len())
	}
	dict.Delete(100)
	if _, ok := dict.Get(100); ok {
		t.Fatal("deleted atom present")
	}
}

func TestSubstitutionOutsiderSeesOnlyFakes(t *testing.T) {
	f := newFixture(t, "alice")
	dict := NewDictionary()
	fakes := [][]byte{[]byte("fake-one"), []byte("fake-two")}
	g, err := NewSubstitutionGroup("s", dict, fakes)
	if err != nil {
		t.Fatalf("NewSubstitutionGroup: %v", err)
	}
	g.Add("alice")
	secrets := [][]byte{[]byte("real secret 1"), []byte("real secret 2"), []byte("real secret 3")}
	for _, s := range secrets {
		env, err := g.Encrypt(s)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		fake, err := FakeView(env)
		if err != nil {
			t.Fatalf("FakeView: %v", err)
		}
		// The visible fake must come from the pool, never the real value.
		if bytes.Equal(fake, s) {
			t.Fatal("fake view leaked the real value")
		}
		fromPool := false
		for _, f := range fakes {
			if bytes.Equal(fake, f) {
				fromPool = true
			}
		}
		if !fromPool {
			t.Fatalf("fake %q not from pool", fake)
		}
		got, err := g.Decrypt(f.users["alice"], env)
		if err != nil || !bytes.Equal(got, s) {
			t.Fatalf("member decrypt: %q, %v", got, err)
		}
	}
	// The dictionary holds the real atoms but at untraceable indices; an
	// outsider scanning it sees values without attribution, and the group's
	// envelopes never reference indices in the clear.
	if dict.Len() != len(secrets) {
		t.Fatalf("dictionary has %d atoms", dict.Len())
	}
}

func TestFakeViewRejectsOtherSchemes(t *testing.T) {
	g, _ := NewSymmetricGroup("g")
	g.Add("a")
	env, _ := g.Encrypt([]byte("x"))
	if _, err := FakeView(env); err == nil {
		t.Fatal("FakeView accepted a non-substitution envelope")
	}
}
