// Package pubkey provides public-key (asymmetric) encryption and digital
// signatures, implementing the "public key encryption" row of Table I of the
// paper and the signature substrate for Section IV (data integrity).
//
// Encryption is ECIES-style hybrid: an ephemeral ECDH key agreement on P-256
// derives (via the prf package) an AES-GCM key that encrypts the payload.
// Both ends can keep what they agreed: a Sender wraps to a recipient it has
// met with one symmetric seal, and a key pair remembers the senders it has
// authenticated, so a (sender, recipient) pair pays for one agreement, not
// one per ciphertext. Signatures are Ed25519. Both use only the Go standard
// library.
package pubkey

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"godosn/internal/crypto/symmetric"
)

// Errors returned by this package.
var (
	ErrCiphertextFormat = errors.New("pubkey: malformed ciphertext")
	ErrBadSignature     = errors.New("pubkey: signature verification failed")
	ErrNilKey           = errors.New("pubkey: nil key")
)

// encContext labels ECIES key derivation; the ephemeral and the recipient
// public keys follow it in the KDF info (see agree).
const encContext = "godosn/pubkey/ecies-v2"

// EncryptionKeyPair holds a P-256 ECDH keypair used for hybrid encryption.
// It is safe for concurrent use and must not be copied.
type EncryptionKeyPair struct {
	private *ecdh.PrivateKey

	// memo keeps the AEAD agreed with each sender ephemeral key that has
	// authenticated a ciphertext, so a reader pays one ECDH per sender. It
	// holds nothing the private key could not recompute.
	mu   sync.Mutex
	memo aeadTable
}

// EncryptionPublicKey is the public half of an EncryptionKeyPair.
type EncryptionPublicKey struct {
	public *ecdh.PublicKey
}

// NewEncryptionKeyPair generates a fresh P-256 keypair.
func NewEncryptionKeyPair() (*EncryptionKeyPair, error) {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pubkey: generating encryption key: %w", err)
	}
	return &EncryptionKeyPair{private: priv}, nil
}

// EncryptionKeyPairFromPrivateBytes reconstructs a keypair from a 32-byte
// P-256 private scalar. It is used by the IBE
// private key generator to derive identity keys deterministically.
func EncryptionKeyPairFromPrivateBytes(data []byte) (*EncryptionKeyPair, error) {
	priv, err := ecdh.P256().NewPrivateKey(data)
	if err != nil {
		return nil, fmt.Errorf("pubkey: parsing private key: %w", err)
	}
	return &EncryptionKeyPair{private: priv}, nil
}

// Public returns the public key for distribution to other users.
func (kp *EncryptionKeyPair) Public() *EncryptionPublicKey {
	return &EncryptionPublicKey{public: kp.private.PublicKey()}
}

// Bytes returns the canonical encoding of the public key.
func (pk *EncryptionPublicKey) Bytes() []byte {
	return pk.public.Bytes()
}

// Encrypt encrypts plaintext to the holder of pk using ephemeral ECDH +
// AES-GCM: a Sender used once, for callers with no repeated audience. The
// ciphertext layout is: ephemeral public key || sealed payload.
func Encrypt(pk *EncryptionPublicKey, plaintext []byte) ([]byte, error) {
	return NewSender().Encrypt(pk, plaintext)
}

// EphemeralSize is the length of the ephemeral public key every ciphertext
// carries: an uncompressed P-256 point. A multi-recipient ciphertext carries
// it once for all its wraps.
const EphemeralSize = 65

// WrapOverhead is what one wrap adds to its plaintext: the nonce and the
// tag. A wrap is nonce || sealed payload || tag.
func WrapOverhead() int { return symmetric.Overhead() }

// CiphertextOverhead is the ciphertext expansion of Encrypt in bytes: the
// ephemeral public key and one wrap's overhead.
func CiphertextOverhead() int { return EphemeralSize + WrapOverhead() }

// Decrypt reverses Encrypt (one-shot or through a Sender): Open on the
// ciphertext's ephemeral public key and the wrap that follows it.
func (kp *EncryptionKeyPair) Decrypt(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < EphemeralSize {
		return nil, ErrCiphertextFormat
	}
	return kp.Open(ciphertext[:EphemeralSize], ciphertext[EphemeralSize:])
}

// Open opens this key pair's wrap under a sender ephemeral public key — one
// wrap of a multi-recipient ciphertext (Multi), or the two halves of a
// single-recipient one. The lengths are checked before any key agreement. The
// first wrap under an ephemeral key pays the ECDH; once it has authenticated,
// later ones under that key are one AES-GCM open.
func (kp *EncryptionKeyPair) Open(ephemeral, wrap []byte) ([]byte, error) {
	if len(ephemeral) != EphemeralSize || len(wrap) < WrapOverhead() {
		return nil, ErrCiphertextFormat
	}
	from := pointOf(ephemeral)
	kp.mu.Lock()
	opener, known := kp.memo[from]
	kp.mu.Unlock()
	if !known {
		ephPub, err := ecdh.P256().NewPublicKey(ephemeral)
		if err != nil {
			return nil, fmt.Errorf("pubkey: parsing ephemeral key: %w", err)
		}
		opener, err = agree(kp.private, ephPub, ephemeral, kp.private.PublicKey().Bytes())
		if err != nil {
			return nil, err
		}
	}
	plaintext, err := opener.Open(wrap, ephemeral)
	if err != nil {
		return nil, fmt.Errorf("pubkey: opening payload: %w", err)
	}
	if !known {
		// Only now: the tag proved the sender knows the pairwise key, so
		// forged ephemerals cannot churn the table.
		kp.mu.Lock()
		if kp.memo == nil {
			kp.memo = make(aeadTable)
		}
		kp.memo.put(receiverMemoBound, from, opener)
		kp.mu.Unlock()
	}
	return plaintext, nil
}

// SigningKeyPair holds an Ed25519 keypair for digital signatures.
type SigningKeyPair struct {
	private ed25519.PrivateKey
	public  ed25519.PublicKey
}

// VerificationKey is the public half of a SigningKeyPair.
type VerificationKey ed25519.PublicKey

// NewSigningKeyPair generates a fresh Ed25519 keypair.
func NewSigningKeyPair() (*SigningKeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pubkey: generating signing key: %w", err)
	}
	return &SigningKeyPair{private: priv, public: pub}, nil
}

// Seed returns the 32-byte Ed25519 seed from which the keypair can be
// reconstructed with SigningKeyPairFromSeed. It is the transferable form of
// a signing capability (e.g. the per-post comment key of Section IV-C).
func (kp *SigningKeyPair) Seed() []byte {
	return kp.private.Seed()
}

// SigningKeyPairFromSeed reconstructs a signing keypair from a seed produced
// by Seed.
func SigningKeyPairFromSeed(seed []byte) (*SigningKeyPair, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("pubkey: bad seed length %d", len(seed))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		return nil, errors.New("pubkey: unexpected public key type")
	}
	return &SigningKeyPair{private: priv, public: pub}, nil
}

// Verification returns the verification key for distribution.
func (kp *SigningKeyPair) Verification() VerificationKey {
	out := make(VerificationKey, len(kp.public))
	copy(out, kp.public)
	return out
}

// Sign signs message with the private key.
func (kp *SigningKeyPair) Sign(message []byte) []byte {
	return ed25519.Sign(kp.private, message)
}

// Verify checks signature over message against the verification key.
func Verify(vk VerificationKey, message, signature []byte) error {
	if len(vk) != ed25519.PublicKeySize {
		return ErrNilKey
	}
	if !ed25519.Verify(ed25519.PublicKey(vk), message, signature) {
		return ErrBadSignature
	}
	return nil
}

// SignatureSize is the size in bytes of a signature produced by Sign.
const SignatureSize = ed25519.SignatureSize
