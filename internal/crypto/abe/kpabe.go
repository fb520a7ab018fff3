package abe

import (
	"encoding/json"
	"fmt"
	"math/big"
	"sort"

	"godosn/internal/crypto/pubkey"
	"godosn/internal/crypto/shamir"
	"godosn/internal/crypto/symmetric"
)

// This file implements KP-ABE: the dual of CP-ABE where "access structure is
// [associated] with the users' secret keys ... while the condition in the key
// policy ABE is reverse" (paper Section III-D). Ciphertexts are labeled with
// an attribute set; a key carries a policy tree and decrypts ciphertexts
// whose attribute set satisfies it.
//
// Substitution note (DESIGN.md §2): true KP-ABE enforcement of AND gates over
// ciphertext attributes requires pairings. Here the ciphertext seed is
// Shamir-shared over its own attribute set with threshold 1 per attribute
// wrap, and the key's policy is *certified*: the authority signs the policy
// tree into the key, and decryption cryptographically requires (a) holding
// the attribute secrets for a satisfying set, and (b) an authority signature
// over exactly that policy. Key size grows with the policy and ciphertext
// size with the attribute set — the asymptotics the survey reasons about.

// KPKey is a KP-ABE decryption key: an authority-certified policy tree plus
// the attribute secrets for the policy's leaves.
type KPKey struct {
	// Epoch is the issuing epoch.
	Epoch uint64
	// Policy is the key's access structure over ciphertext attributes.
	Policy *Policy

	signature []byte
	secrets   map[string]*pubkey.EncryptionKeyPair
}

// kpPolicyDigest canonically encodes what the authority certifies.
func kpPolicyDigest(epoch uint64, policy *Policy) []byte {
	blob, _ := json.Marshal(struct {
		Epoch  uint64 `json:"epoch"`
		Policy string `json:"policy"`
	}{Epoch: epoch, Policy: policy.String()})
	return blob
}

// IssueKPKey issues a KP-ABE key for the given policy. All attributes in the
// policy must exist in the universe.
func (a *Authority) IssueKPKey(policy *Policy) (*KPKey, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	secrets := make(map[string]*pubkey.EncryptionKeyPair)
	for _, attr := range policy.Attributes() {
		ak, ok := a.attrs[attr]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
		}
		secrets[attr] = ak.secret
	}
	sig := a.sig.Sign(kpPolicyDigest(a.epoch, policy))
	return &KPKey{Epoch: a.epoch, Policy: policy, signature: sig, secrets: secrets}, nil
}

// KPCiphertext is a KP-ABE ciphertext labeled with an attribute set.
type KPCiphertext struct {
	// Epoch records the parameter epoch used at encryption time.
	Epoch uint64
	// Attributes is the public label set of the ciphertext.
	Attributes []string
	// Ephemeral is the encryptor's ephemeral public key, which every wrap is
	// under.
	Ephemeral []byte
	// Wraps maps attribute name to the wrapped seed (nonce, sealed seed,
	// tag).
	Wraps map[string][]byte
	// Body is the AES-GCM payload under the seed-derived key.
	Body []byte
}

// EncryptKP encrypts plaintext labeled with the given attribute set, wrapping
// the seed as one pubkey.Multi of the encryptor's sender context like
// Encrypt.
func EncryptKP(sender *pubkey.Sender, params *PublicParams, attributes []string, plaintext []byte) (*KPCiphertext, error) {
	if len(attributes) == 0 {
		return nil, ErrEmptyPolicy
	}
	attrs := append([]string(nil), attributes...)
	sort.Strings(attrs)
	seedKey, err := symmetric.NewKey()
	if err != nil {
		return nil, fmt.Errorf("abe: sampling seed: %w", err)
	}
	seed := new(big.Int).SetBytes(seedKey)
	seed.Mod(seed, shamir.Prime())

	var buf [fieldBytes]byte
	seed.FillBytes(buf[:]) // full width, as shareTree wraps shares
	m, err := sender.NewMulti(len(attrs))
	if err != nil {
		return nil, fmt.Errorf("abe: wrapping seed: %w", err)
	}
	wraps := make(map[string][]byte, len(attrs))
	for _, attr := range attrs {
		pk, ok := params.Attrs[attr]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
		}
		wrapped, err := m.WrapTo(nil, pk, buf[:])
		if err != nil {
			return nil, fmt.Errorf("abe: wrapping seed for %q: %w", attr, err)
		}
		wraps[attr] = wrapped
	}
	key, err := seedToKey(seed)
	if err != nil {
		return nil, err
	}
	label := kpLabel(attrs)
	body, err := symmetric.Seal(key, plaintext, label)
	if err != nil {
		return nil, fmt.Errorf("abe: sealing body: %w", err)
	}
	return &KPCiphertext{Epoch: params.Epoch, Attributes: attrs, Ephemeral: m.Ephemeral(), Wraps: wraps, Body: body}, nil
}

// Decrypt recovers the plaintext when the ciphertext attribute set satisfies
// the key's certified policy.
func (k *KPKey) Decrypt(params *PublicParams, ct *KPCiphertext) ([]byte, error) {
	if ct == nil || len(ct.Attributes) == 0 {
		return nil, ErrEmptyPolicy
	}
	if err := pubkey.Verify(params.Verification, kpPolicyDigest(k.Epoch, k.Policy), k.signature); err != nil {
		return nil, fmt.Errorf("abe: key certification invalid: %w", err)
	}
	if !k.Policy.Satisfied(ct.Attributes) {
		return nil, ErrNotAuthorized
	}
	// Any attribute shared between the key policy and the ciphertext label
	// set recovers the seed.
	var lastErr error
	for _, attr := range ct.Attributes {
		sk, ok := k.secrets[attr]
		if !ok {
			continue
		}
		wrapped, ok := ct.Wraps[attr]
		if !ok {
			continue
		}
		raw, err := sk.Open(ct.Ephemeral, wrapped)
		if err != nil {
			lastErr = err
			continue
		}
		seed := new(big.Int).SetBytes(raw)
		key, err := seedToKey(seed)
		if err != nil {
			return nil, err
		}
		plaintext, err := symmetric.Open(key, ct.Body, kpLabel(ct.Attributes))
		if err != nil {
			return nil, fmt.Errorf("abe: opening body: %w", err)
		}
		return plaintext, nil
	}
	if lastErr != nil {
		return nil, ErrNotSatisfied
	}
	return nil, ErrNotSatisfied
}

func kpLabel(sortedAttrs []string) []byte {
	blob, _ := json.Marshal(sortedAttrs)
	return blob
}
