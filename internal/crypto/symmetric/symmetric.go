// Package symmetric provides authenticated symmetric encryption (AES-GCM)
// with explicit key management primitives.
//
// It implements the "symmetric key encryption" row of Table I of the paper:
// a single shared secret is used for both encryption and decryption, which is
// fast but complicates revocation — revoking a member requires generating a
// fresh key and re-encrypting all data that must stay hidden from the revoked
// member. Key rotation helpers for that workflow live here; the group
// management logic built on top lives in internal/social/privacy.
package symmetric

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// KeySize is the size in bytes of symmetric keys (AES-256).
const KeySize = 32

// NonceSize is the standard GCM nonce size in bytes.
const NonceSize = 12

// ErrInvalidKeySize indicates a key of the wrong length was supplied.
var ErrInvalidKeySize = errors.New("symmetric: invalid key size")

// ErrCiphertextTooShort indicates a ciphertext shorter than a nonce.
var ErrCiphertextTooShort = errors.New("symmetric: ciphertext too short")

// Key is an AES-256 key.
type Key []byte

// NewKey generates a fresh random key using crypto/rand.
func NewKey() (Key, error) {
	k := make([]byte, KeySize)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		return nil, fmt.Errorf("symmetric: generating key: %w", err)
	}
	return k, nil
}

// Clone returns an independent copy of the key.
func (k Key) Clone() Key {
	out := make(Key, len(k))
	copy(out, k)
	return out
}

// Valid reports whether the key has the correct length.
func (k Key) Valid() bool { return len(k) == KeySize }

// Seal encrypts and authenticates plaintext under key, binding the optional
// associated data. The returned ciphertext embeds a random nonce prefix.
func Seal(key Key, plaintext, associatedData []byte) ([]byte, error) {
	return SealTo(nil, key, plaintext, associatedData)
}

// SealTo is Seal appending into dst, for hot paths that reuse a buffer or
// build a larger message around the ciphertext: when dst has
// len(plaintext)+Overhead() spare capacity, SealTo performs no allocation.
// It returns the extended slice (which may have been reallocated, like
// append). plaintext may lie in that spare capacity exactly where its
// sealed bytes go, NonceSize bytes past len(dst): the seal is then in place,
// the exact overlap GCM permits.
func SealTo(dst []byte, key Key, plaintext, associatedData []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return sealTo(aead, dst, plaintext, associatedData)
}

// sealTo is the AEAD-level seal body shared by the one-shot path and Sealer.
func sealTo(aead cipher.AEAD, dst, plaintext, associatedData []byte) ([]byte, error) {
	need := NonceSize + len(plaintext) + aead.Overhead()
	if free := cap(dst) - len(dst); free < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	// Write the nonce directly into the output to avoid a separate buffer.
	nonce := dst[len(dst) : len(dst)+NonceSize]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("symmetric: generating nonce: %w", err)
	}
	dst = dst[:len(dst)+NonceSize]
	if len(associatedData) == 0 {
		return aead.Seal(dst, nonce, plaintext, nil), nil
	}
	ad := borrowAD(associatedData)
	dst = aead.Seal(dst, nonce, plaintext, *ad)
	returnAD(ad)
	return dst, nil
}

// Open authenticates and decrypts a ciphertext produced by Seal.
func Open(key Key, ciphertext, associatedData []byte) ([]byte, error) {
	return OpenTo(nil, key, ciphertext, associatedData)
}

// OpenTo is Open appending the plaintext into dst (allocation-free when dst
// has enough spare capacity). It returns the extended slice.
func OpenTo(dst []byte, key Key, ciphertext, associatedData []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return openTo(aead, dst, ciphertext, associatedData)
}

// openTo is the AEAD-level open body shared by the one-shot path and Sealer.
func openTo(aead cipher.AEAD, dst, ciphertext, associatedData []byte) ([]byte, error) {
	if len(ciphertext) < NonceSize {
		return nil, ErrCiphertextTooShort
	}
	nonce, body := ciphertext[:NonceSize], ciphertext[NonceSize:]
	var (
		plaintext []byte
		err       error
	)
	if len(associatedData) == 0 {
		plaintext, err = aead.Open(dst, nonce, body, nil)
	} else {
		ad := borrowAD(associatedData)
		plaintext, err = aead.Open(dst, nonce, body, *ad)
		returnAD(ad)
	}
	if err != nil {
		return nil, fmt.Errorf("symmetric: opening ciphertext: %w", err)
	}
	return plaintext, nil
}

// cipher.AEAD is an interface, so the compiler must assume it keeps the
// associated data it is handed, and every caller's associated data would
// escape: a caller binding a string key as []byte(key) would pay a heap
// copy per seal and per open. sealTo and openTo instead hand the AEAD a
// copy held in adSlots, a free list of adSlotCount buffers taken and put
// back with compare-and-swap, so the caller's bytes stay on its stack. A
// slot is lent to one caller at a time; a caller that finds every slot
// empty allocates a buffer and keeps it if a slot has come free by the
// time it is done. A buffer that grew past maxKeptAD is dropped, so one
// large binding does not pin memory. Fixed slots rather than a sync.Pool:
// the race detector makes a pool drop items at random, and the allocation
// pins built on this path must hold under -race too.
const (
	adSlotCount = 4
	maxKeptAD   = 1 << 10
)

var adSlots [adSlotCount]atomic.Pointer[[]byte]

// borrowAD returns a buffer holding a copy of ad, from a slot when one is
// full.
func borrowAD(ad []byte) *[]byte {
	var buf *[]byte
	for i := range adSlots {
		if p := adSlots[i].Load(); p != nil && adSlots[i].CompareAndSwap(p, nil) {
			buf = p
			break
		}
	}
	if buf == nil {
		buf = new([]byte)
	}
	*buf = append((*buf)[:0], ad...)
	return buf
}

// returnAD puts buf back into an empty slot, unless it grew past maxKeptAD
// or every slot is full.
func returnAD(buf *[]byte) {
	if cap(*buf) > maxKeptAD {
		return
	}
	for i := range adSlots {
		if adSlots[i].CompareAndSwap(nil, buf) {
			return
		}
	}
}

// Overhead is the total ciphertext expansion of Seal in bytes.
func Overhead() int { return NonceSize + 16 }

func newAEAD(key Key) (cipher.AEAD, error) {
	if !key.Valid() {
		return nil, ErrInvalidKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("symmetric: creating cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("symmetric: creating GCM: %w", err)
	}
	return aead, nil
}
