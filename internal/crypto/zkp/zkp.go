// Package zkp implements Schnorr zero-knowledge proofs of knowledge of a
// discrete logarithm over P-256, made non-interactive by the Fiat–Shamir
// transform.
//
// The paper (Section V-B) describes searcher privacy via "Zero Knowledge
// Proof alongside using pseudonyms": a user searches under a pseudonym and
// proves possession of an access credential without revealing anything else.
// In internal/search/zkpauth the credential is a secret scalar x whose public
// image X = g^x is registered with the data owner; this package provides the
// proof that the searcher knows x.
package zkp

import (
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
)

// Errors returned by this package.
var (
	ErrInvalidProof = errors.New("zkp: proof verification failed")
	ErrNotOnCurve   = errors.New("zkp: point not on curve")
)

var curve = elliptic.P256()

// Witness is the prover's secret discrete log.
type Witness struct {
	x *big.Int
}

// Statement is the public image X = g^x being proven about.
type Statement struct {
	X []byte // marshaled curve point
}

// NewWitness samples a fresh witness and its public statement.
func NewWitness() (*Witness, *Statement, error) {
	x, err := randScalar()
	if err != nil {
		return nil, nil, err
	}
	gx, gy := curve.ScalarBaseMult(x.Bytes())
	return &Witness{x: x}, &Statement{X: elliptic.Marshal(curve, gx, gy)}, nil
}

// Proof is a non-interactive Schnorr proof (Fiat–Shamir transform).
type Proof struct {
	// Commitment is the marshaled point A = g^r.
	Commitment []byte
	// Response is s = r + c*x mod N with challenge c = H(context, X, A).
	Response []byte
}

// Prove produces a non-interactive proof of knowledge of the witness for the
// given statement, bound to the supplied context (e.g. a search request
// transcript) to prevent replay across contexts.
func (w *Witness) Prove(stmt *Statement, context []byte) (*Proof, error) {
	r, err := randScalar()
	if err != nil {
		return nil, err
	}
	ax, ay := curve.ScalarBaseMult(r.Bytes())
	a := elliptic.Marshal(curve, ax, ay)
	c := challenge(stmt.X, a, context)
	n := curve.Params().N
	s := new(big.Int).Mul(c, w.x)
	s.Add(s, r)
	s.Mod(s, n)
	return &Proof{Commitment: a, Response: s.Bytes()}, nil
}

// Verify checks a proof against the statement and context: g^s == A * X^c.
func Verify(stmt *Statement, proof *Proof, context []byte) error {
	if stmt == nil || proof == nil {
		return ErrInvalidProof
	}
	xx, xy := elliptic.Unmarshal(curve, stmt.X)
	if xx == nil {
		return ErrNotOnCurve
	}
	ax, ay := elliptic.Unmarshal(curve, proof.Commitment)
	if ax == nil {
		return ErrNotOnCurve
	}
	c := challenge(stmt.X, proof.Commitment, context)
	s := new(big.Int).SetBytes(proof.Response)
	// left = g^s
	lx, ly := curve.ScalarBaseMult(s.Bytes())
	// right = A + c*X (additive notation)
	cxx, cxy := curve.ScalarMult(xx, xy, c.Bytes())
	rx, ry := curve.Add(ax, ay, cxx, cxy)
	if lx.Cmp(rx) != 0 || ly.Cmp(ry) != 0 {
		return ErrInvalidProof
	}
	return nil
}

func challenge(x, a, context []byte) *big.Int {
	h := sha256.New()
	h.Write([]byte("godosn/zkp/fiat-shamir-v1"))
	h.Write(x)
	h.Write(a)
	h.Write(context)
	c := new(big.Int).SetBytes(h.Sum(nil))
	return c.Mod(c, curve.Params().N)
}

func randScalar() (*big.Int, error) {
	n := curve.Params().N
	for {
		k, err := rand.Int(rand.Reader, n)
		if err != nil {
			return nil, fmt.Errorf("zkp: sampling scalar: %w", err)
		}
		if k.Sign() > 0 {
			return k, nil
		}
	}
}
