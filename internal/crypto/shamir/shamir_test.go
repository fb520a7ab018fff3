package shamir

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		k, n int
	}{
		{"1 of 1", 1, 1},
		{"1 of 5", 1, 5},
		{"2 of 3", 2, 3},
		{"3 of 3", 3, 3},
		{"5 of 10", 5, 10},
		{"10 of 10", 10, 10},
	}
	secret := big.NewInt(123456789)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			shares, err := Split(secret, tt.k, tt.n)
			if err != nil {
				t.Fatalf("Split: %v", err)
			}
			if len(shares) != tt.n {
				t.Fatalf("got %d shares, want %d", len(shares), tt.n)
			}
			got, err := Combine(shares[:tt.k])
			if err != nil {
				t.Fatalf("Combine: %v", err)
			}
			if got.Cmp(secret) != 0 {
				t.Fatalf("reconstructed %v, want %v", got, secret)
			}
		})
	}
}

func TestCombineAnySubset(t *testing.T) {
	secret := big.NewInt(42)
	shares, err := Split(secret, 3, 6)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(6)
		subset := []Share{shares[perm[0]], shares[perm[1]], shares[perm[2]]}
		got, err := Combine(subset)
		if err != nil {
			t.Fatalf("Combine: %v", err)
		}
		if got.Cmp(secret) != 0 {
			t.Fatalf("subset %v reconstructed %v, want %v", perm[:3], got, secret)
		}
	}
}

func TestTooFewSharesYieldWrongSecret(t *testing.T) {
	secret := big.NewInt(7777)
	shares, err := Split(secret, 3, 5)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	// With fewer than k shares the interpolation yields an unrelated value
	// with overwhelming probability.
	got, err := Combine(shares[:2])
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if got.Cmp(secret) == 0 {
		t.Fatal("2 shares of a 3-threshold sharing reconstructed the secret")
	}
}

func TestSplitValidation(t *testing.T) {
	secret := big.NewInt(1)
	if _, err := Split(secret, 0, 3); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := Split(secret, 4, 3); err == nil {
		t.Fatal("accepted k>n")
	}
	if _, err := Split(big.NewInt(-1), 1, 1); err == nil {
		t.Fatal("accepted negative secret")
	}
	if _, err := Split(prime, 1, 1); err == nil {
		t.Fatal("accepted secret >= prime")
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := Combine(nil); err == nil {
		t.Fatal("accepted empty share list")
	}
	s := Share{X: 1, Y: big.NewInt(5)}
	if _, err := Combine([]Share{s, s.Clone()}); err == nil {
		t.Fatal("accepted duplicate X coordinates")
	}
	if _, err := Combine([]Share{{X: 0, Y: big.NewInt(5)}}); err == nil {
		t.Fatal("accepted zero X coordinate")
	}
}

func TestShareClone(t *testing.T) {
	s := Share{X: 3, Y: big.NewInt(99)}
	c := s.Clone()
	c.Y.Add(c.Y, big.NewInt(1))
	if s.Y.Cmp(big.NewInt(99)) != 0 {
		t.Fatal("mutating clone affected original")
	}
}

func TestPrimeIsPrime(t *testing.T) {
	if !prime.ProbablyPrime(64) {
		t.Fatal("field modulus is not prime")
	}
}

// TestReduceInPlace: Reduce writes the residue into its argument, in
// [0, p) from either side of the field.
func TestReduceInPlace(t *testing.T) {
	top := new(big.Int).Sub(prime, big.NewInt(1))
	for _, tc := range []struct{ v, want *big.Int }{
		{big.NewInt(5), big.NewInt(5)},
		{new(big.Int).Set(top), top},
		{new(big.Int).Set(prime), big.NewInt(0)},
		{new(big.Int).Add(prime, big.NewInt(5)), big.NewInt(5)},
		{big.NewInt(-1), top},
	} {
		v := tc.v
		if got := Reduce(v); got != v || v.Cmp(tc.want) != 0 {
			t.Fatalf("Reduce = %v (same value: %v), want %v in place", got, got == v, tc.want)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw uint64, kSeed, nSeed uint8) bool {
		n := int(nSeed%10) + 1
		k := int(kSeed)%n + 1
		secret := new(big.Int).SetUint64(raw)
		shares, err := Split(secret, k, n)
		if err != nil {
			return false
		}
		got, err := Combine(shares[:k])
		if err != nil {
			return false
		}
		return got.Cmp(secret) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
