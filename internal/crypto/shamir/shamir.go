// Package shamir implements Shamir secret sharing over the prime field
// GF(p) with p = 2^256 - 189, a 256-bit prime.
//
// It is the threshold substrate for the attribute-based encryption scheme in
// internal/crypto/abe: an ABE access structure is compiled to a tree of
// threshold gates, and each gate splits its secret among its children with
// this package.
package shamir

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// prime is 2^256 - 189, the largest 256-bit prime of the form 2^256 - c.
var prime, _ = new(big.Int).SetString(
	"115792089237316195423570985008687907853269984665640564039457584007913129639747", 10)

// Reduce reduces v modulo the field prime in place and returns it.
func Reduce(v *big.Int) *big.Int { return v.Mod(v, prime) }

// Share is one point (X, Y) on the sharing polynomial.
type Share struct {
	// X is the evaluation point; it must be non-zero and unique per share.
	X uint32
	// Y is the polynomial value at X, reduced mod the field prime.
	Y *big.Int
}

// Clone returns an independent copy of the share.
func (s Share) Clone() Share {
	return Share{X: s.X, Y: new(big.Int).Set(s.Y)}
}

// Errors returned by this package.
var (
	ErrBadThreshold   = errors.New("shamir: threshold must satisfy 1 <= k <= n")
	ErrSecretRange    = errors.New("shamir: secret out of field range")
	ErrTooFewShares   = errors.New("shamir: not enough shares")
	ErrDuplicateShare = errors.New("shamir: duplicate share X coordinate")
	ErrZeroX          = errors.New("shamir: share X coordinate must be non-zero")
)

// Split shares secret into n shares such that any k reconstruct it.
// The secret must lie in [0, p), p the field prime.
func Split(secret *big.Int, k, n int) ([]Share, error) {
	if k < 1 || n < k {
		return nil, ErrBadThreshold
	}
	if secret.Sign() < 0 || secret.Cmp(prime) >= 0 {
		return nil, ErrSecretRange
	}
	// Random polynomial of degree k-1 with constant term = secret.
	coeffs := make([]*big.Int, k)
	coeffs[0] = new(big.Int).Set(secret)
	for i := 1; i < k; i++ {
		c, err := rand.Int(rand.Reader, prime)
		if err != nil {
			return nil, fmt.Errorf("shamir: sampling coefficient: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		x := uint32(i + 1)
		shares[i] = Share{X: x, Y: evalPoly(coeffs, x)}
	}
	return shares, nil
}

// Combine reconstructs the secret from at least k shares produced by Split
// with threshold k. Passing fewer shares than the original threshold yields
// an unrelated field element, not an error: secrecy, not integrity, is the
// contract here.
func Combine(shares []Share) (*big.Int, error) {
	if len(shares) == 0 {
		return nil, ErrTooFewShares
	}
	seen := make(map[uint32]struct{}, len(shares))
	for _, s := range shares {
		if s.X == 0 {
			return nil, ErrZeroX
		}
		if _, dup := seen[s.X]; dup {
			return nil, ErrDuplicateShare
		}
		seen[s.X] = struct{}{}
	}
	// Lagrange interpolation at x = 0.
	secret := new(big.Int)
	for i, si := range shares {
		num := big.NewInt(1)
		den := big.NewInt(1)
		xi := big.NewInt(int64(si.X))
		for j, sj := range shares {
			if i == j {
				continue
			}
			xj := big.NewInt(int64(sj.X))
			// num *= -xj ; den *= (xi - xj)
			num.Mul(num, new(big.Int).Neg(xj))
			num.Mod(num, prime)
			d := new(big.Int).Sub(xi, xj)
			den.Mul(den, d)
			den.Mod(den, prime)
		}
		denInv := new(big.Int).ModInverse(den, prime)
		if denInv == nil {
			return nil, ErrDuplicateShare
		}
		term := new(big.Int).Mul(si.Y, num)
		term.Mul(term, denInv)
		secret.Add(secret, term)
		secret.Mod(secret, prime)
	}
	return secret, nil
}

func evalPoly(coeffs []*big.Int, x uint32) *big.Int {
	// Horner's rule mod prime.
	xv := big.NewInt(int64(x))
	y := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		y.Mul(y, xv)
		y.Add(y, coeffs[i])
		y.Mod(y, prime)
	}
	return y
}
