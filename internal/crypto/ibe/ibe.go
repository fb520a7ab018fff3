// Package ibe implements identity-based encryption (IBE) and identity-based
// broadcast encryption (IBBE), pairing-free, via a trusted Private Key
// Generator.
//
// The paper (Section III-E) describes IBE as a scheme where "public keys can
// be any arbitrary string ... like email addresses", with a trusted third
// party, the Private Key Generator (PKG), producing the corresponding
// private keys; and IBBE as its broadcast form where "the username or e-mail
// addresses of the members can be used as their public key", making
// recipient removal free ("Removing a recipient from the list would then
// have no extra cost").
//
// Substitution (DESIGN.md §2): the pairing-based Boneh–Franklin / Delerablée
// constructions are replaced by a PKG that deterministically derives a P-256
// keypair from (master secret, identity). The PKG publishes identity public
// keys through a public directory operation (DirectoryLookup) — senders need
// no interaction with the recipient, preserving the IBE usage model — and
// issues private keys to authenticated identity owners (Extract). IBBE
// ciphertexts wrap a session key per recipient through the broadcaster's
// pubkey.Sender (one key agreement per recipient, then symmetric wraps). The
// sender's ephemeral key travels once per broadcast, so each recipient adds
// its identity and a 60-byte wrap (nonce, sealed key, tag): ciphertext size
// is still O(recipients) rather than Delerablée's O(1), at about half the
// per-recipient overhead of a full ECIES ciphertext each. EXPERIMENTS.md
// reports the measured growth and flags the deviation. Recipient *removal*
// remains free, matching the survey's claim.
package ibe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"godosn/internal/crypto/prf"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/crypto/symmetric"
)

// Errors returned by this package.
var (
	ErrNoRecipients  = errors.New("ibe: no recipients")
	ErrNotRecipient  = errors.New("ibe: identity is not a recipient of this broadcast")
	ErrBadCiphertext = errors.New("ibe: malformed ciphertext")
)

// PKG is the trusted Private Key Generator. It is safe for concurrent use.
type PKG struct {
	mu     sync.RWMutex
	master []byte
	cache  map[string]*identityKeys
}

type identityKeys struct {
	pair   *pubkey.EncryptionKeyPair
	public *pubkey.EncryptionPublicKey
}

// NewPKG creates a PKG with a fresh random master secret.
func NewPKG() (*PKG, error) {
	master := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, master); err != nil {
		return nil, fmt.Errorf("ibe: generating master secret: %w", err)
	}
	return &PKG{master: master, cache: make(map[string]*identityKeys)}, nil
}

// derive deterministically produces the identity keypair.
func (p *PKG) derive(identity string) (*identityKeys, error) {
	p.mu.RLock()
	if k, ok := p.cache[identity]; ok {
		p.mu.RUnlock()
		return k, nil
	}
	p.mu.RUnlock()

	seed, err := prf.Derive(p.master, "godosn/ibe/identity-v1/"+identity, 32)
	if err != nil {
		return nil, fmt.Errorf("ibe: deriving identity seed: %w", err)
	}
	pair, err := deterministicKey(seed)
	if err != nil {
		return nil, err
	}
	k := &identityKeys{pair: pair, public: pair.Public()}
	p.mu.Lock()
	p.cache[identity] = k
	p.mu.Unlock()
	return k, nil
}

// deterministicKey derives a P-256 keypair from seed material, retrying the
// derivation with a fresh counter until the scalar lands in range.
func deterministicKey(seed []byte) (*pubkey.EncryptionKeyPair, error) {
	for counter := 0; counter < 64; counter++ {
		material, err := prf.Derive(seed, fmt.Sprintf("godosn/ibe/keygen/%d", counter), 32)
		if err != nil {
			return nil, err
		}
		pair, err := pubkey.EncryptionKeyPairFromPrivateBytes(material)
		if err == nil {
			return pair, nil
		}
	}
	return nil, errors.New("ibe: could not derive key from seed")
}

// IdentityKey is the private key the PKG issues to an identity owner.
type IdentityKey struct {
	// Identity is the string identity (e.g. an email address).
	Identity string

	pair *pubkey.EncryptionKeyPair
}

// Extract issues the private key for an identity. In a deployment this is
// gated on authenticating ownership of the identity; the framework models
// that check at the social layer.
func (p *PKG) Extract(identity string) (*IdentityKey, error) {
	k, err := p.derive(identity)
	if err != nil {
		return nil, err
	}
	return &IdentityKey{Identity: identity, pair: k.pair}, nil
}

// DirectoryLookup returns the public key for an identity. It is a public
// operation: any sender may call it, mirroring IBE's "encrypt to a string"
// usage model.
func (p *PKG) DirectoryLookup(identity string) (*pubkey.EncryptionPublicKey, error) {
	k, err := p.derive(identity)
	if err != nil {
		return nil, err
	}
	return k.public, nil
}

// Encrypt encrypts plaintext to a single identity (plain IBE).
func (p *PKG) Encrypt(identity string, plaintext []byte) ([]byte, error) {
	pk, err := p.DirectoryLookup(identity)
	if err != nil {
		return nil, err
	}
	ct, err := pubkey.Encrypt(pk, plaintext)
	if err != nil {
		return nil, fmt.Errorf("ibe: encrypting to %q: %w", identity, err)
	}
	return ct, nil
}

// Decrypt decrypts a plain IBE ciphertext with the identity's private key.
func (k *IdentityKey) Decrypt(ciphertext []byte) ([]byte, error) {
	plaintext, err := k.pair.Decrypt(ciphertext)
	if err != nil {
		return nil, fmt.Errorf("ibe: decrypting for %q: %w", k.Identity, err)
	}
	return plaintext, nil
}

// Broadcast is an IBBE ciphertext addressed to a list of identities.
type Broadcast struct {
	// Recipients is the public recipient list, as in IBBE where the
	// broadcaster "selects a group of identities".
	Recipients []string
	// Ephemeral is the broadcaster's ephemeral public key, which every wrap
	// is under.
	Ephemeral []byte
	// WrappedKeys holds the per-recipient wrap of the session key (nonce,
	// sealed key, tag), indexed like Recipients.
	WrappedKeys [][]byte
	// Body is the session-key-encrypted payload.
	Body []byte
}

// EncryptBroadcast encrypts plaintext to every listed identity. The wraps of
// the session key are one pubkey.Multi of the broadcaster's sender context,
// so only an identity the sender has not wrapped to before costs a key
// agreement, and the ephemeral key is carried once; the PKG stays a directory
// and takes no part in the encryption. All wraps and the body are written
// into one buffer; each WrappedKeys entry is a view into it whose capacity
// ends where the wrap does, so appending to one reallocates rather than
// overwriting the next. The session key stays in this call's frame and is
// cleared once the body is sealed. The broadcast keeps recipients as its
// Recipients, read-only: the caller must not modify the slice afterwards.
func (p *PKG) EncryptBroadcast(sender *pubkey.Sender, recipients []string, plaintext []byte) (*Broadcast, error) {
	if len(recipients) == 0 {
		return nil, ErrNoRecipients
	}
	var session [symmetric.KeySize]byte
	if _, err := rand.Read(session[:]); err != nil {
		return nil, fmt.Errorf("ibe: generating session key: %w", err)
	}
	b, err := p.sealBroadcast(sender, recipients, plaintext, session[:])
	clear(session[:])
	return b, err
}

// sealBroadcast is EncryptBroadcast under a drawn session key. The wrap of
// the i-th recipient fills the i-th slot of the buffer: the session key is
// copied where its sealed bytes go and sealed in place, as abe.Encrypt seals
// its shares.
func (p *PKG) sealBroadcast(sender *pubkey.Sender, recipients []string, plaintext, session []byte) (*Broadcast, error) {
	m, err := sender.NewMulti(len(recipients))
	if err != nil {
		return nil, fmt.Errorf("ibe: wrapping session key: %w", err)
	}
	n := pubkey.WrapOverhead() + len(session)
	bodyStart := len(recipients) * n
	buf := make([]byte, bodyStart, bodyStart+symmetric.Overhead()+len(plaintext))
	b := newBroadcast(len(recipients))
	for i, id := range recipients {
		pk, err := p.DirectoryLookup(id)
		if err != nil {
			return nil, err
		}
		slot := buf[i*n : (i+1)*n : (i+1)*n]
		key := slot[symmetric.NonceSize : symmetric.NonceSize+len(session)]
		copy(key, session)
		wrap, err := m.WrapTo(slot[:0], pk, key)
		if err != nil {
			return nil, fmt.Errorf("ibe: wrapping session key for %q: %w", id, err)
		}
		b.WrappedKeys = append(b.WrappedKeys, wrap)
	}
	if buf, err = symmetric.SealTo(buf, session, plaintext, nil); err != nil {
		return nil, fmt.Errorf("ibe: sealing broadcast body: %w", err)
	}
	b.Recipients, b.Ephemeral, b.Body = recipients, m.Ephemeral(), buf[bodyStart:]
	return b, nil
}

// newBroadcast returns an empty broadcast whose WrappedKeys has room for n
// wraps, in one allocation up to 8 recipients: the group size the feed
// workloads post to. It holds no recipient array, since EncryptBroadcast
// adopts the caller's list.
func newBroadcast(n int) *Broadcast {
	if n > 8 {
		return &Broadcast{WrappedKeys: make([][]byte, 0, n)}
	}
	blk := new(struct {
		b     Broadcast
		wraps [8][]byte
	})
	blk.b.WrappedKeys = blk.wraps[:0:n]
	return &blk.b
}

// UnwrapSession recovers the broadcast's session key for one of its listed
// recipients — the public-key phase of a decryption, apart from OpenBroadcast
// so callers can memoize the session key per (recipient, broadcast) and skip
// the ECIES unwrap on repeat reads.
func (k *IdentityKey) UnwrapSession(b *Broadcast) ([]byte, error) {
	if b == nil || len(b.Recipients) != len(b.WrappedKeys) {
		return nil, ErrBadCiphertext
	}
	idx := -1
	for i, id := range b.Recipients {
		if id == k.Identity {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, ErrNotRecipient
	}
	session, err := k.pair.Open(b.Ephemeral, b.WrappedKeys[idx])
	if err != nil {
		return nil, fmt.Errorf("ibe: unwrapping session key: %w", err)
	}
	return session, nil
}

// OpenBroadcast opens a broadcast body with an already-unwrapped session key
// — the symmetric phase of a decryption.
func OpenBroadcast(session []byte, b *Broadcast) ([]byte, error) {
	if b == nil {
		return nil, ErrBadCiphertext
	}
	plaintext, err := symmetric.Open(session, b.Body, nil)
	if err != nil {
		return nil, fmt.Errorf("ibe: opening broadcast body: %w", err)
	}
	return plaintext, nil
}
