// Package pre implements proxy re-encryption (PRE) over P-256, in the style
// of Blaze–Bleumer–Strauss (BBS98) ElGamal re-encryption.
//
// The paper (Section II-A) cites flyByNight as "a prototype Facebook
// application addressing some security issues of the Facebook platform by
// proxy cryptography": clients store only ciphertext with the provider, and
// the provider — acting as a *proxy* — transforms ciphertext encrypted for
// Alice into ciphertext decryptable by Bob without ever seeing the
// plaintext or the parties' secret keys.
//
// Construction (EC-ElGamal, additive notation over P-256, group order N):
//
//	key pair:    sk = a,  pk = a·G
//	encrypt:     random r and message point M;  c1 = (a·r)·G = r·pk,
//	             c2 = M + r·G;  the payload is sealed under H(M).
//	decrypt:     M = c2 − a⁻¹·c1
//	re-key a→b:  rk = b·a⁻¹ mod N  (computed with both parties' cooperation,
//	             as in BBS98 — the proxy alone cannot create it)
//	re-encrypt:  c1' = rk·c1 = (b·r)·G;  c2 unchanged
//	decrypt@b:   M = c2 − b⁻¹·c1'
//
// The proxy sees only (c1, c2, sealed payload) and rk; none reveal M.
package pre

import (
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"godosn/internal/crypto/prf"
	"godosn/internal/crypto/symmetric"
)

// Errors returned by this package.
var (
	ErrNotOnCurve    = errors.New("pre: point not on curve")
	ErrBadCiphertext = errors.New("pre: malformed ciphertext")
)

var curve = elliptic.P256()

// KeyPair is a PRE key pair.
type KeyPair struct {
	secret *big.Int
	pubX   *big.Int
	pubY   *big.Int
}

// PublicKey is the public half of a KeyPair.
type PublicKey struct {
	x, y *big.Int
}

// NewKeyPair generates a fresh key pair.
func NewKeyPair() (*KeyPair, error) {
	a, err := randScalar()
	if err != nil {
		return nil, err
	}
	x, y := curve.ScalarBaseMult(a.Bytes())
	return &KeyPair{secret: a, pubX: x, pubY: y}, nil
}

// Public returns the public key.
func (kp *KeyPair) Public() *PublicKey {
	return &PublicKey{x: kp.pubX, y: kp.pubY}
}

// Ciphertext is a PRE ciphertext. Level distinguishes original (encrypted
// directly to the delegator) from re-encrypted (transformed for a delegatee);
// both decrypt the same way with the right secret key.
type Ciphertext struct {
	// C1 is the marshaled point r·pk (or rk·c1 after re-encryption).
	C1 []byte
	// C2 is the marshaled point M + r·G.
	C2 []byte
	// Body is the payload sealed under the key derived from M.
	Body []byte
	// ReEncrypted records whether the proxy transformed this ciphertext.
	ReEncrypted bool
}

// Size returns the approximate serialized size in bytes.
func (c *Ciphertext) Size() int { return len(c.C1) + len(c.C2) + len(c.Body) + 1 }

const keyContext = "godosn/pre/key-v1"

func keyFromPoint(x, y *big.Int) (symmetric.Key, error) {
	h := sha256.New()
	h.Write([]byte("godosn/pre/point-v1"))
	h.Write(elliptic.Marshal(curve, x, y))
	return prf.Derive(h.Sum(nil), keyContext, symmetric.KeySize)
}

// Encrypt encrypts plaintext to the holder of pk (the delegator).
func Encrypt(pk *PublicKey, plaintext []byte) (*Ciphertext, error) {
	r, err := randScalar()
	if err != nil {
		return nil, err
	}
	m, err := randScalar()
	if err != nil {
		return nil, err
	}
	// M = m·G, the random message point carrying the session key.
	mx, my := curve.ScalarBaseMult(m.Bytes())
	// c1 = r·pk = (a·r)·G
	c1x, c1y := curve.ScalarMult(pk.x, pk.y, r.Bytes())
	// c2 = M + r·G
	rgx, rgy := curve.ScalarBaseMult(r.Bytes())
	c2x, c2y := curve.Add(mx, my, rgx, rgy)
	key, err := keyFromPoint(mx, my)
	if err != nil {
		return nil, fmt.Errorf("pre: deriving key: %w", err)
	}
	body, err := symmetric.Seal(key, plaintext, nil)
	if err != nil {
		return nil, fmt.Errorf("pre: sealing body: %w", err)
	}
	return &Ciphertext{
		C1:   elliptic.Marshal(curve, c1x, c1y),
		C2:   elliptic.Marshal(curve, c2x, c2y),
		Body: body,
	}, nil
}

// Decrypt opens a ciphertext with the matching secret key: the delegator's
// for originals, the delegatee's for re-encrypted ones.
func (kp *KeyPair) Decrypt(ct *Ciphertext) ([]byte, error) {
	c1x, c1y := elliptic.Unmarshal(curve, ct.C1)
	if c1x == nil {
		return nil, ErrNotOnCurve
	}
	c2x, c2y := elliptic.Unmarshal(curve, ct.C2)
	if c2x == nil {
		return nil, ErrNotOnCurve
	}
	n := curve.Params().N
	inv := new(big.Int).ModInverse(kp.secret, n)
	if inv == nil {
		return nil, ErrBadCiphertext
	}
	// r·G = a⁻¹·c1
	rgx, rgy := curve.ScalarMult(c1x, c1y, inv.Bytes())
	// M = c2 − r·G
	mx, my := curve.Add(c2x, c2y, rgx, new(big.Int).Sub(curve.Params().P, rgy))
	key, err := keyFromPoint(mx, my)
	if err != nil {
		return nil, fmt.Errorf("pre: deriving key: %w", err)
	}
	pt, err := symmetric.Open(key, ct.Body, nil)
	if err != nil {
		return nil, fmt.Errorf("pre: opening body: %w", err)
	}
	return pt, nil
}

// ReKey is the proxy's re-encryption key for one delegation direction.
type ReKey struct {
	rk *big.Int
	// From and To label the delegation for bookkeeping.
	From, To string
}

// NewReKey computes rk = b·a⁻¹ mod N for delegation from a to b. As in
// BBS98, producing it requires the cooperation of both key holders; the
// proxy receives only the product, from which neither secret is recoverable.
func NewReKey(from *KeyPair, to *KeyPair, fromLabel, toLabel string) (*ReKey, error) {
	n := curve.Params().N
	inv := new(big.Int).ModInverse(from.secret, n)
	if inv == nil {
		return nil, errors.New("pre: degenerate delegator key")
	}
	rk := new(big.Int).Mul(to.secret, inv)
	rk.Mod(rk, n)
	return &ReKey{rk: rk, From: fromLabel, To: toLabel}, nil
}

// ReEncrypt transforms a delegator ciphertext into a delegatee ciphertext.
// The proxy learns nothing about the plaintext.
func ReEncrypt(rk *ReKey, ct *Ciphertext) (*Ciphertext, error) {
	if ct.ReEncrypted {
		// BBS98 is single-hop: re-encrypting twice would require rk
		// composition, which this deployment does not delegate.
		return nil, errors.New("pre: ciphertext already re-encrypted (single-hop scheme)")
	}
	c1x, c1y := elliptic.Unmarshal(curve, ct.C1)
	if c1x == nil {
		return nil, ErrNotOnCurve
	}
	nx, ny := curve.ScalarMult(c1x, c1y, rk.rk.Bytes())
	return &Ciphertext{
		C1:          elliptic.Marshal(curve, nx, ny),
		C2:          append([]byte(nil), ct.C2...),
		Body:        append([]byte(nil), ct.Body...),
		ReEncrypted: true,
	}, nil
}

func randScalar() (*big.Int, error) {
	n := curve.Params().N
	for {
		k, err := rand.Int(rand.Reader, n)
		if err != nil {
			return nil, fmt.Errorf("pre: sampling scalar: %w", err)
		}
		if k.Sign() > 0 {
			return k, nil
		}
	}
}
