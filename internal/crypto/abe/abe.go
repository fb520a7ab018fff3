package abe

import (
	"bytes"
	"cmp"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"

	"godosn/internal/crypto/prf"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/crypto/shamir"
	"godosn/internal/crypto/symmetric"
)

// Authority is the attribute authority: it owns one keypair per attribute,
// publishes the public parameters, and issues user keys.
//
// An Authority is safe for concurrent use.
type Authority struct {
	mu sync.RWMutex
	// epoch increments on every revocation-driven re-key (Section III-D:
	// "usual revocation methods for ABE use frequent re-keying").
	epoch uint64
	attrs map[string]*attributeKeys
}

// attributeKeys holds the secret and public half of one attribute parameter.
type attributeKeys struct {
	secret *pubkey.EncryptionKeyPair
	public *pubkey.EncryptionPublicKey
}

// NewAuthority creates an authority managing the given attribute universe.
// Attributes can be added later with AddAttribute.
func NewAuthority(universe ...string) (*Authority, error) {
	a := &Authority{
		epoch: 1,
		attrs: make(map[string]*attributeKeys),
	}
	for _, attr := range universe {
		if err := a.AddAttribute(attr); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// AddAttribute registers a new attribute in the universe. Adding an existing
// attribute is a no-op.
func (a *Authority) AddAttribute(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.attrs[name]; ok {
		return nil
	}
	kp, err := pubkey.NewEncryptionKeyPair()
	if err != nil {
		return fmt.Errorf("abe: generating attribute %q parameter: %w", name, err)
	}
	a.attrs[name] = &attributeKeys{secret: kp, public: kp.Public()}
	return nil
}

// Epoch returns the current re-keying epoch.
func (a *Authority) Epoch() uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.epoch
}

// PublicParams returns the public encryption parameters: one public key per
// attribute, at the current epoch. The result is a snapshot safe to retain.
type PublicParams struct {
	// Epoch is the re-keying epoch these parameters belong to.
	Epoch uint64
	// Attrs maps attribute name to its public parameter.
	Attrs map[string]*pubkey.EncryptionPublicKey
}

// Current reports whether a snapshot taken earlier still equals what
// PublicParams would return now. Attributes are never removed and their keys
// change only with the epoch, so the epoch and the attribute count decide.
func (a *Authority) Current(p *PublicParams) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return p.Epoch == a.epoch && len(p.Attrs) == len(a.attrs)
}

// PublicParams returns a snapshot of the authority's public parameters.
func (a *Authority) PublicParams() *PublicParams {
	a.mu.RLock()
	defer a.mu.RUnlock()
	attrs := make(map[string]*pubkey.EncryptionPublicKey, len(a.attrs))
	for name, ak := range a.attrs {
		attrs[name] = ak.public
	}
	return &PublicParams{Epoch: a.epoch, Attrs: attrs}
}

// UserKey is a CP-ABE decryption key: the attribute secrets for the user's
// attribute set, issued at a particular epoch.
type UserKey struct {
	// Epoch is the epoch the key was issued at; keys from earlier epochs
	// cannot decrypt ciphertexts created after a revocation re-key.
	Epoch uint64
	// Attributes is the user's attribute set, as issued.
	Attributes []string

	secrets map[string]*pubkey.EncryptionKeyPair
}

// IssueKey issues a CP-ABE key for the given attribute set. Every attribute
// must exist in the universe.
func (a *Authority) IssueKey(attributes []string) (*UserKey, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	secrets := make(map[string]*pubkey.EncryptionKeyPair, len(attributes))
	for _, attr := range attributes {
		ak, ok := a.attrs[attr]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
		}
		secrets[attr] = ak.secret
	}
	return &UserKey{
		Epoch:      a.epoch,
		Attributes: append([]string(nil), attributes...),
		secrets:    secrets,
	}, nil
}

// Revoke performs the re-keying step the paper describes for ABE revocation:
// every attribute held by the revoked user gets a fresh parameter and the
// epoch advances. Previously issued keys for those attributes stop working
// for new ciphertexts; already-published data must be re-encrypted by its
// owners (measured in experiment E2).
func (a *Authority) Revoke(revokedAttributes []string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, attr := range revokedAttributes {
		if _, ok := a.attrs[attr]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
		}
		kp, err := pubkey.NewEncryptionKeyPair()
		if err != nil {
			return fmt.Errorf("abe: re-keying attribute %q: %w", attr, err)
		}
		a.attrs[attr] = &attributeKeys{secret: kp, public: kp.Public()}
	}
	a.epoch++
	return nil
}

// Ciphertext is a CP-ABE ciphertext.
type Ciphertext struct {
	// Epoch records the parameter epoch used at encryption time.
	Epoch uint64
	// PolicyText is the access structure in the canonical syntax
	// Policy.String renders; it is public, as in CP-ABE. The body's AEAD
	// authenticates it.
	PolicyText []byte
	// Ephemeral is the encryptor's ephemeral public key, which every share
	// wrap is under.
	Ephemeral []byte
	// Shares holds the wrapped Shamir share of each policy leaf, in
	// increasing index order with each index once.
	Shares []WrappedShare
	// Body is the AES-GCM payload under the shared seed-derived key.
	Body []byte
}

// WrappedShare is the Shamir share of the policy leaf numbered Index,
// wrapped to its attribute parameter: nonce, sealed share, tag.
type WrappedShare struct {
	Index uint32
	Wrap  []byte
}

// share returns the wrap of the leaf numbered idx.
func (ct *Ciphertext) share(idx uint32) ([]byte, bool) {
	i, ok := slices.BinarySearchFunc(ct.Shares, idx, func(s WrappedShare, idx uint32) int {
		return cmp.Compare(s.Index, idx)
	})
	if !ok {
		return nil, false
	}
	return ct.Shares[i].Wrap, true
}

const seedContext = "godosn/abe/seed-v1"

// NewCiphertext returns an empty ciphertext whose Shares has room for n
// shares, in one allocation when n is 1: a single-attribute policy, the one
// the feed workloads post. Encrypt builds every ciphertext with it; the
// envelope codec decodes into a block of its own that also holds names.
func NewCiphertext(n int) *Ciphertext {
	if n > 1 {
		return &Ciphertext{Shares: make([]WrappedShare, 0, n)}
	}
	blk := new(struct {
		ct     Ciphertext
		shares [1]WrappedShare
	})
	blk.ct.Shares = blk.shares[:0:n]
	return &blk.ct
}

// Encrypt encrypts plaintext under the access policy using the public
// parameters. Any party holding PublicParams can encrypt (standard CP-ABE);
// the leaf-share wraps are one pubkey.Multi of the encryptor's sender
// context, so only an attribute parameter it has not wrapped to before costs
// a key agreement, and the ciphertext carries the ephemeral key once. The
// policy text, the wraps and the body are views of one buffer, each with a
// capacity that ends with it, so appending to one reallocates rather than
// overwriting the next. The payload key stays in this call's frame and is
// cleared once the body is sealed.
func Encrypt(sender *pubkey.Sender, params *PublicParams, policy *Policy, plaintext []byte) (*Ciphertext, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if attr, unknown := policy.unknownAttr(params.Attrs); unknown {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAttr, attr)
	}
	leaves := int(policy.leafCount())
	m, err := sender.NewMulti(leaves)
	if err != nil {
		return nil, fmt.Errorf("abe: wrapping shares: %w", err)
	}
	textLen := policy.textLen()
	bodyStart := textLen + leaves*wrapSize()
	buf := policy.appendText(make([]byte, 0, bodyStart+symmetric.Overhead()+len(plaintext)))
	ct := NewCiphertext(leaves)
	ct.Epoch, ct.PolicyText, ct.Ephemeral = params.Epoch, buf[:textLen:textLen], m.Ephemeral()
	var key [symmetric.KeySize]byte
	err = shareSeed(&m, params, policy, ct, buf[textLen:bodyStart], &key)
	if err == nil {
		if buf, err = symmetric.SealTo(buf[:bodyStart], key[:], plaintext, ct.PolicyText); err != nil {
			err = fmt.Errorf("abe: sealing body: %w", err)
		}
	}
	clear(key[:])
	if err != nil {
		return nil, err
	}
	ct.Body = buf[bodyStart:]
	return ct, nil
}

// wrapSize is the length of every share wrap: a full field element sealed.
func wrapSize() int { return pubkey.WrapOverhead() + fieldBytes }

// fieldMax is the Shamir field's largest element, p-1, in fieldBytes
// big-endian bytes: a drawn seed above it is not in the field.
var fieldMax = shamir.Reduce(big.NewInt(-1)).FillBytes(make([]byte, fieldBytes))

// toField reduces a drawn fieldBytes seed into the Shamir field in place. A
// seed below p, all but about 2^-248 of them, is left as drawn and builds no
// big.Int.
func toField(seed []byte) {
	if bytes.Compare(seed, fieldMax) > 0 {
		shamir.Reduce(new(big.Int).SetBytes(seed)).FillBytes(seed)
	}
}

// shareSeed draws a fresh seed in the Shamir field as bytes (toField),
// derives the payload key from it into key, and shares it into wraps. A leaf
// root's share is the seed itself: it is drawn straight into its wrap's slot
// and sealed over in place, so no field element is built. A gate root's seed
// is drawn on the stack and shared as a big.Int by shareTree.
func shareSeed(m *pubkey.Multi, params *PublicParams, policy *Policy, ct *Ciphertext, wraps []byte, key *[symmetric.KeySize]byte) error {
	var drawn [fieldBytes]byte
	slot, seed := []byte(nil), drawn[:]
	if policy.Kind == GateLeaf {
		slot = leafSlot(ct, wraps)
		seed = slotShare(slot)
	}
	if _, err := rand.Read(seed); err != nil {
		return fmt.Errorf("abe: sampling seed: %w", err)
	}
	toField(seed)
	deriveKey(key, bytes.TrimLeft(seed, "\x00"))
	if policy.Kind == GateLeaf {
		return wrapLeaf(m, params, policy, ct, slot)
	}
	var secret big.Int
	secret.SetBytes(seed)
	clear(drawn[:])
	return shareTree(m, params, policy, &secret, ct, wraps)
}

// shareTree recursively Shamir-shares secret down the policy tree, wrapping
// leaf shares to the leaf attribute parameters. Leaf share indices are
// assigned depth-first and appended to ct.Shares; internal structure is
// reproducible from the public policy, so only leaf wraps are stored. Every
// share is wrapped as a full field element, so a ciphertext's size depends on
// its policy and plaintext only, never on the share values.
func shareTree(m *pubkey.Multi, params *PublicParams, node *Policy, secret *big.Int, ct *Ciphertext, wraps []byte) error {
	if node.Kind == GateLeaf {
		slot := leafSlot(ct, wraps)
		secret.FillBytes(slotShare(slot))
		return wrapLeaf(m, params, node, ct, slot)
	}
	shares, err := shamir.Split(secret, node.threshold(), len(node.Children))
	if err != nil {
		return fmt.Errorf("abe: sharing at gate: %w", err)
	}
	for i, child := range node.Children {
		if err := shareTree(m, params, child, shares[i].Y, ct, wraps); err != nil {
			return err
		}
	}
	return nil
}

// leafSlot returns the next leaf's wrap slot: the wrap of the leaf numbered
// i+1 fills the i-th wrapSize slot of wraps.
func leafSlot(ct *Ciphertext, wraps []byte) []byte {
	i, n := len(ct.Shares), wrapSize()
	return wraps[i*n : (i+1)*n : (i+1)*n]
}

// slotShare is the field element of a wrap slot where the leaf's share is
// written and then sealed in place.
func slotShare(slot []byte) []byte {
	return slot[symmetric.NonceSize : symmetric.NonceSize+fieldBytes]
}

// wrapLeaf seals the share written in slot to the leaf's attribute parameter,
// over itself, and records the wrap as the next share.
func wrapLeaf(m *pubkey.Multi, params *PublicParams, node *Policy, ct *Ciphertext, slot []byte) error {
	wrap, err := m.WrapTo(slot[:0], params.Attrs[node.Attribute], slotShare(slot))
	if err != nil {
		return fmt.Errorf("abe: wrapping share for %q: %w", node.Attribute, err)
	}
	ct.Shares = append(ct.Shares, WrappedShare{Index: uint32(len(ct.Shares) + 1), Wrap: wrap})
	return nil
}

// RecoverKey runs the public-key phase of Decrypt — policy satisfaction,
// share unwrapping, Shamir interpolation, and payload-key derivation — and
// returns the payload key. It is split out so callers can memoize the key per
// (reader, ciphertext) and skip the share recovery on repeat reads; OpenBody
// completes the decryption. policy is the tree ct.PolicyText parses to, for
// a caller that holds it already; nil has RecoverKey parse the text.
func (k *UserKey) RecoverKey(ct *Ciphertext, policy *Policy) (symmetric.Key, error) {
	if ct == nil || len(ct.PolicyText) == 0 {
		return nil, ErrBadPolicy
	}
	if policy == nil {
		var err error
		if policy, err = ParsePolicy(string(ct.PolicyText)); err != nil {
			return nil, err
		}
	}
	if !policy.Satisfied(k.Attributes) {
		return nil, ErrNotSatisfied
	}
	if policy.Kind == GateLeaf {
		// A leaf root's share is the seed: its minimal big-endian bytes
		// are what the key derives from, so no field element is built.
		share, err := k.openLeaf(policy, ct, 1)
		if err != nil {
			return nil, err
		}
		key := seedToKey(bytes.TrimLeft(share, "\x00"))
		clear(share)
		return key, nil
	}
	var nextIdx uint32 = 1
	seed, err := recoverTree(k, policy, ct, &nextIdx)
	if err != nil {
		return nil, err
	}
	var buf [fieldBytes]byte
	key := seedToKey(minimalBytes(seed, &buf))
	clear(buf[:])
	return key, nil
}

// OpenBody opens the ciphertext body with an already-recovered payload key —
// the symmetric phase of Decrypt.
func OpenBody(key symmetric.Key, ct *Ciphertext) ([]byte, error) {
	if ct == nil || len(ct.PolicyText) == 0 {
		return nil, ErrBadPolicy
	}
	plaintext, err := symmetric.Open(key, ct.Body, ct.PolicyText)
	if err != nil {
		return nil, fmt.Errorf("abe: opening body: %w", err)
	}
	return plaintext, nil
}

// Decrypt recovers the plaintext if the key's attributes satisfy the
// ciphertext policy and the key epoch matches the ciphertext epoch:
// RecoverKey followed by OpenBody.
func (k *UserKey) Decrypt(ct *Ciphertext) ([]byte, error) {
	key, err := k.RecoverKey(ct, nil)
	if err != nil {
		return nil, err
	}
	return OpenBody(key, ct)
}

// recoverTree walks the policy tree, decrypting leaf shares the key can open
// and interpolating gate secrets bottom-up; a gate stops opening children
// once it holds its threshold of shares. It returns nil secret with
// ErrNotSatisfied when a needed subtree cannot be recovered.
func recoverTree(k *UserKey, node *Policy, ct *Ciphertext, nextIdx *uint32) (*big.Int, error) {
	if node.Kind == GateLeaf {
		idx := *nextIdx
		*nextIdx++
		share, err := k.openLeaf(node, ct, idx)
		if err != nil {
			return nil, err
		}
		v := new(big.Int).SetBytes(share)
		clear(share)
		return v, nil
	}
	need := node.threshold()
	recovered := make([]shamir.Share, 0, need)
	for i, child := range node.Children {
		// Every child consumes its leaf index range whether or not we can
		// open it, so indices stay aligned with shareTree's assignment.
		before := *nextIdx
		if len(recovered) == need {
			// The gate has its threshold: the rest stay sealed.
			*nextIdx = before + child.leafCount()
			continue
		}
		sec, err := recoverTree(k, child, ct, nextIdx)
		if err != nil {
			// Structural errors abort; unsatisfied subtrees are skipped.
			if !isUnsatisfied(err) {
				return nil, err
			}
			*nextIdx = before + child.leafCount()
			continue
		}
		recovered = append(recovered, shamir.Share{X: uint32(i + 1), Y: sec})
	}
	if len(recovered) < need {
		return nil, ErrNotSatisfied
	}
	secret, err := shamir.Combine(recovered)
	if err != nil {
		return nil, fmt.Errorf("abe: combining at gate: %w", err)
	}
	return secret, nil
}

// openLeaf opens the share of the leaf numbered idx with the key's secret for
// its attribute. The share is a fresh slice the caller clears after use.
func (k *UserKey) openLeaf(node *Policy, ct *Ciphertext, idx uint32) ([]byte, error) {
	sk, ok := k.secrets[node.Attribute]
	if !ok {
		return nil, ErrNotSatisfied
	}
	wrapped, ok := ct.share(idx)
	if !ok {
		return nil, fmt.Errorf("%w: missing share %d", ErrBadPolicy, idx)
	}
	share, err := sk.Open(ct.Ephemeral, wrapped)
	if err != nil {
		// A wrap that no longer opens (e.g. the attribute was re-keyed
		// after a revocation) counts as an unsatisfied leaf, so an OR
		// branch over a still-valid attribute can proceed.
		return nil, ErrNotSatisfied
	}
	return share, nil
}

func isUnsatisfied(err error) bool {
	return errors.Is(err, ErrNotSatisfied)
}

// leafCount returns the number of leaves under the node.
func (p *Policy) leafCount() uint32 {
	if p.Kind == GateLeaf {
		return 1
	}
	var n uint32
	for _, c := range p.Children {
		n += c.leafCount()
	}
	return n
}

// fieldBytes is the encoded size of the largest element of the Shamir field,
// whose prime is just below 2^256.
const fieldBytes = 32

// minimalBytes writes v into buf and returns the bytes v.Bytes() would
// allocate: big-endian, no leading zeros; the payload key derives from them,
// so they define the keys. Only a value outside the field is longer, and it
// takes Bytes' allocation.
func minimalBytes(v *big.Int, buf *[fieldBytes]byte) []byte {
	n := (v.BitLen() + 7) / 8
	if n > fieldBytes {
		return v.Bytes()
	}
	return v.FillBytes(buf[:n])
}

// seedToKey returns the payload key derived from the seed's minimal
// big-endian bytes, in an array of its own: RecoverKey's caller may keep it.
func seedToKey(seed []byte) symmetric.Key {
	key := new([symmetric.KeySize]byte)
	deriveKey(key, seed)
	return key[:]
}

// deriveKey writes the payload key derived from the seed's minimal
// big-endian bytes into dst, allocating nothing. prf.DeriveTo fails only on
// an empty seed or a length out of range; both lengths here are fixed by
// their types, a SHA-256 digest and a key array, so it cannot fail.
func deriveKey(dst *[symmetric.KeySize]byte, seed []byte) {
	h := sha256.Sum256(seed)
	_ = prf.DeriveTo(dst[:], h[:], seedContext)
	clear(h[:])
}
