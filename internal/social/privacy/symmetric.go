package privacy

import (
	"fmt"
	"strconv"

	"godosn/internal/crypto/symmetric"
	"godosn/internal/social/identity"
)

// symmetricRow is the data phase of Table I's symmetric row, which the
// hybrid row reuses unchanged (Section III-F: "symmetric encryption of data
// by the use of a symmetric key"): one group key per epoch, its prepared
// AEAD, and associated data binding the scheme label, the group name and the
// epoch. A rotation rebuilds the AEAD and the associated data, so the
// per-message path pays neither a key schedule nor a formatting pass. The sealer is
// safe for a concurrent re-seal fan-out.
type symmetricRow struct {
	core
	// label prefixes the associated data: "sym" or "hybrid".
	label  string
	epoch  uint64
	key    symmetric.Key
	sealer *symmetric.Sealer
	adBuf  []byte
}

// newSymmetricRow returns a group core with the epoch-1 key.
func newSymmetricRow(scheme Scheme, label, name string) (symmetricRow, error) {
	r := symmetricRow{core: newCore(scheme, name), label: label}
	if err := r.rotate(); err != nil {
		return symmetricRow{}, err
	}
	return r, nil
}

// Epoch returns the current key epoch.
func (r *symmetricRow) Epoch() uint64 { return r.epoch }

// rotate replaces the key with a fresh one under the next epoch.
func (r *symmetricRow) rotate() error {
	key, err := symmetric.NewKey()
	if err != nil {
		return fmt.Errorf("privacy: rotating key for %q: %w", r.name, err)
	}
	sealer, err := symmetric.NewSealer(key)
	if err != nil {
		return fmt.Errorf("privacy: building sealer for %q: %w", r.name, err)
	}
	r.epoch++
	r.key, r.sealer = key, sealer
	// label/name/epoch, sized for two slashes and any epoch.
	ad := make([]byte, 0, len(r.label)+len(r.name)+22)
	ad = append(append(ad, r.label...), '/')
	ad = append(append(ad, r.name...), '/')
	r.adBuf = strconv.AppendUint(ad, r.epoch, 10)
	return nil
}

// ad returns the current epoch's associated data.
func (r *symmetricRow) ad() []byte { return r.adBuf }

func (r *symmetricRow) seal(plaintext []byte) (Envelope, error) {
	ct, err := r.sealer.Seal(plaintext, r.ad())
	if err != nil {
		return Envelope{}, fmt.Errorf("privacy: sealing for %q: %w", r.name, err)
	}
	return r.envelope(r.epoch, &symPayload{ct: ct}), nil
}

// reseal re-encrypts archive entry i from its retained plaintext.
func (r *symmetricRow) reseal(i int, _ Envelope) (Envelope, error) { return r.seal(r.plaintexts[i]) }

// Encrypt implements Group: a single symmetric operation per message.
func (r *symmetricRow) Encrypt(plaintext []byte) (Envelope, error) {
	if len(r.members) == 0 {
		return Envelope{}, ErrNoMembers
	}
	env, err := r.seal(plaintext)
	if err != nil {
		return Envelope{}, err
	}
	r.retain(env, plaintext)
	return env, nil
}

// ciphertext returns the body of an envelope sealed under the current key.
func (r *symmetricRow) ciphertext(env Envelope) ([]byte, error) {
	if env.Epoch != r.epoch {
		return nil, fmt.Errorf("%w: envelope epoch %d, key epoch %d", ErrStaleEpoch, env.Epoch, r.epoch)
	}
	p, ok := env.Payload.(*symPayload)
	if !ok {
		return nil, fmt.Errorf("privacy: malformed %s payload", r.scheme)
	}
	return p.ct, nil
}

func (r *symmetricRow) open(ct []byte) ([]byte, error) {
	pt, err := r.sealer.Open(ct, r.ad())
	if err != nil {
		return nil, fmt.Errorf("privacy: opening for %q: %w", r.name, err)
	}
	return pt, nil
}

// SymmetricGroup implements Table I's "symmetric key encryption" row: one
// shared key per group, used for both encryption and decryption.
//
// Section III-B: "For each new group, a distinct key should be defined.
// Adding a user to the existing group means sharing the group key with that
// user. For the revocation, we need to create a new key and re-encrypt the
// whole data." Remove therefore rotates the key and re-encrypts the archive;
// the test suite and experiment E2 measure exactly that cost. As the paper
// also notes, "if someone already decrypted the data and kept a copy, we
// cannot revoke that" — re-encryption protects the stored copies only.
type SymmetricGroup struct {
	symmetricRow
}

var _ Group = (*SymmetricGroup)(nil)

// NewSymmetricGroup creates a group with a fresh shared key.
func NewSymmetricGroup(name string) (*SymmetricGroup, error) {
	row, err := newSymmetricRow(SchemeSymmetric, "sym", name)
	if err != nil {
		return nil, err
	}
	return &SymmetricGroup{row}, nil
}

// Add implements Group: "sharing the group key with that user" is modeled by
// membership (the in-process stand-in for key possession).
func (g *SymmetricGroup) Add(member string) error { return g.add(member) }

// Remove implements Group: rotate the key, bump the epoch, re-encrypt the
// whole archive under the new key.
func (g *SymmetricGroup) Remove(member string) (RevocationReport, error) {
	if err := g.remove(member); err != nil {
		return RevocationReport{}, err
	}
	if err := g.rotate(); err != nil {
		return RevocationReport{}, err
	}
	n, err := g.reencrypt(1, g.reseal)
	return RevocationReport{RekeyedMembers: len(g.members), ReencryptedEnvelopes: n}, err
}

// Decrypt implements Group: possession of the current group key is modeled
// by current membership plus a matching epoch.
func (g *SymmetricGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := g.check(env); err != nil {
		return nil, err
	}
	if err := g.checkMember(user.Name); err != nil {
		return nil, err
	}
	ct, err := g.ciphertext(env)
	if err != nil {
		return nil, err
	}
	return g.open(ct)
}
