package abe

import (
	"math/rand"
	"testing"
	"testing/quick"

	"godosn/internal/crypto/pubkey"
)

// TestQuickDecryptIffSatisfied is the core ABE correctness property: for
// random policies and random attribute subsets, decryption succeeds exactly
// when the attribute set satisfies the policy.
func TestQuickDecryptIffSatisfied(t *testing.T) {
	universe := []string{"a", "b", "c", "d", "e"}
	auth, err := NewAuthority(universe...)
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	params := auth.PublicParams()

	f := func(policySeed int64, attrMask uint8) bool {
		rng := rand.New(rand.NewSource(policySeed))
		policy := randomPolicy(rng, universe, 0)
		if policy.Validate() != nil {
			return true // generator should not produce these; skip if so
		}
		var attrs []string
		for i, a := range universe {
			if attrMask&(1<<i) != 0 {
				attrs = append(attrs, a)
			}
		}
		ct, err := Encrypt(pubkey.NewSender(), params, policy, []byte("payload"))
		if err != nil {
			return false
		}
		key, err := auth.IssueKey(attrs)
		if err != nil {
			return false
		}
		pt, err := key.Decrypt(ct)
		satisfied := policy.Satisfied(attrs)
		if satisfied {
			return err == nil && string(pt) == "payload"
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// randomPolicy builds a random monotone policy of bounded depth.
func randomPolicy(rng *rand.Rand, universe []string, depth int) *Policy {
	if depth >= 2 || rng.Intn(3) == 0 {
		return Attr(universe[rng.Intn(len(universe))])
	}
	nChildren := rng.Intn(3) + 2
	children := make([]*Policy, nChildren)
	for i := range children {
		children[i] = randomPolicy(rng, universe, depth+1)
	}
	switch rng.Intn(3) {
	case 0:
		return And(children...)
	case 1:
		return Or(children...)
	default:
		return Threshold(rng.Intn(nChildren)+1, children...)
	}
}

// TestDeepNestedPolicies exercises multi-level trees deterministically.
func TestDeepNestedPolicies(t *testing.T) {
	auth, _ := NewAuthority("a", "b", "c", "d", "e", "f")
	params := auth.PublicParams()
	policy, err := ParsePolicy("((a AND b) OR 2-of(c, d, (e AND f)))")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	cases := []struct {
		attrs []string
		want  bool
	}{
		{[]string{"a", "b"}, true},
		{[]string{"c", "d"}, true},
		{[]string{"c", "e", "f"}, true},
		{[]string{"d", "e", "f"}, true},
		{[]string{"a", "c"}, false},
		{[]string{"e", "f"}, false},
		{[]string{"a", "d"}, false},
	}
	for _, tc := range cases {
		ct, err := Encrypt(pubkey.NewSender(), params, policy, []byte("x"))
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		key, err := auth.IssueKey(tc.attrs)
		if err != nil {
			t.Fatalf("IssueKey: %v", err)
		}
		_, err = key.Decrypt(ct)
		if (err == nil) != tc.want {
			t.Errorf("attrs %v: decrypt success=%v, want %v", tc.attrs, err == nil, tc.want)
		}
	}
}
