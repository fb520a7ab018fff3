// Package prf implements a pseudorandom function family based on HMAC-SHA256,
// plus an HKDF-style key derivation helper.
//
// The paper (Section III-F) describes Hummingbird deriving per-message
// symmetric keys by applying "a combination of a pseudo random function (PRF)
// and a hash function on a particular part of message (hashtag)". This
// package provides that PRF; the oblivious evaluation protocol lives in
// internal/crypto/oprf.
package prf

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

// SecretSize is the size in bytes of a PRF secret.
const SecretSize = 32

// OutputSize is the size in bytes of a PRF output.
const OutputSize = sha256.Size

// ErrEmptySecret indicates evaluation with an empty secret.
var ErrEmptySecret = errors.New("prf: empty secret")

// Secret is the key selecting one function from the PRF family.
type Secret []byte

// NewSecret generates a fresh random PRF secret.
func NewSecret() (Secret, error) {
	s := make([]byte, SecretSize)
	if _, err := io.ReadFull(rand.Reader, s); err != nil {
		return nil, fmt.Errorf("prf: generating secret: %w", err)
	}
	return s, nil
}

// Eval computes F_s(x) = HMAC-SHA256(s, x).
func Eval(s Secret, x []byte) ([]byte, error) {
	if len(s) == 0 {
		return nil, ErrEmptySecret
	}
	st := acquire(s)
	st.msg = append(st.msg[:0], x...)
	st.mac()
	out := make([]byte, OutputSize)
	copy(out, st.sum[:])
	st.release()
	return out, nil
}

// Derive expands a seed into length bytes of key material bound to the given
// context label, using the HKDF-Expand construction over HMAC-SHA256. It is
// DeriveTo into a fresh slice of that length.
func Derive(seed []byte, context string, length int) ([]byte, error) {
	var out []byte
	err := checkDerive(seed, length)
	if err == nil {
		out = make([]byte, length)
		expand(out, seed, context)
	}
	return out, err
}

// DeriveTo fills dst with Derive(seed, context, len(dst)) and allocates
// nothing, so a caller that consumes the key material itself can keep it in
// its own stack frame and clear it after use.
func DeriveTo(dst, seed []byte, context string) error {
	err := checkDerive(seed, len(dst))
	if err == nil {
		expand(dst, seed, context)
	}
	return err
}

// checkDerive rejects an empty seed and a length HKDF-Expand cannot produce.
func checkDerive(seed []byte, length int) error {
	if len(seed) == 0 {
		return ErrEmptySecret
	}
	if length <= 0 || length > 255*OutputSize {
		return fmt.Errorf("prf: invalid derive length %d", length)
	}
	return nil
}

// expand writes HKDF-Expand(seed, context) over all of out.
func expand(out, seed []byte, context string) {
	st := acquire(seed)
	for counter, off := byte(1), 0; off < len(out); counter++ {
		// T(i) = HMAC(seed, T(i-1) || context || i), T(0) empty.
		st.msg = st.msg[:0]
		if counter > 1 {
			st.msg = append(st.msg, st.sum[:]...)
		}
		st.msg = append(st.msg, context...)
		st.msg = append(st.msg, counter)
		st.mac()
		off += copy(out[off:], st.sum[:])
	}
	st.release()
}

// state is the scratch of one HMAC-SHA256 computation (RFC 2104): the two
// digests, the key XORed into the inner and outer pad blocks, the last MAC,
// and the message being MACed. States are pooled, so a Derive or Eval
// allocates only the output it returns and a DeriveTo nothing; every
// key-derived byte is zeroed before a state goes back to the pool.
type state struct {
	inner, outer hash.Hash
	ipad, opad   [sha256.BlockSize]byte
	sum          [sha256.Size]byte
	msg          []byte
}

// maxPooledMsg bounds the message buffer a pooled state keeps: a caller with
// a very long context or input does not pin that much memory in the pool.
const maxPooledMsg = 1 << 10

var states = sync.Pool{New: func() any {
	return &state{inner: sha256.New(), outer: sha256.New()}
}}

// acquire takes a state from the pool keyed for HMAC under key. A key longer
// than a block is replaced by its hash, as RFC 2104 requires.
func acquire(key []byte) *state {
	st := states.Get().(*state)
	if len(key) > sha256.BlockSize {
		st.sum = sha256.Sum256(key)
		key = st.sum[:]
	}
	// Both pads are all zero here (fresh or released), so the key bytes
	// followed by zeros are XORed with the pad constants.
	copy(st.ipad[:], key)
	copy(st.opad[:], key)
	for i := range st.ipad {
		st.ipad[i] ^= 0x36
		st.opad[i] ^= 0x5c
	}
	return st
}

// mac sets st.sum to HMAC(key, st.msg).
func (st *state) mac() {
	st.inner.Reset()
	st.inner.Write(st.ipad[:])
	st.inner.Write(st.msg)
	st.inner.Sum(st.sum[:0])
	st.outer.Reset()
	st.outer.Write(st.opad[:])
	st.outer.Write(st.sum[:])
	st.outer.Sum(st.sum[:0])
}

// zeros is written through a digest to overwrite its block buffer.
var zeros [sha256.BlockSize]byte

// release zeroes everything the key or the message reached and returns the
// state to the pool. A digest's block buffer still holds the tail of its last
// message (the inner one part of st.msg, the outer one the inner MAC), and
// Reset does not clear it: one byte, then the rest of a block, fills all of
// it with zeros.
func (st *state) release() {
	clear(st.ipad[:])
	clear(st.opad[:])
	clear(st.sum[:])
	clear(st.msg[:cap(st.msg)])
	if cap(st.msg) > maxPooledMsg {
		st.msg = nil
	}
	for _, h := range [...]hash.Hash{st.inner, st.outer} {
		h.Reset()
		h.Write(zeros[:1])
		h.Write(zeros[1:])
		h.Reset()
	}
	states.Put(st)
}
