// Package privacy implements the data-privacy rows of the paper's Table I:
// six access-control mechanisms — information substitution, symmetric key
// encryption, public key encryption, attribute-based encryption, identity
// based broadcast encryption, and hybrid encryption — behind one Group
// abstraction.
//
// "Data privacy protection is defined as the way users can fully control
// their data and manage its accessibility (i.e., to determine which part of
// data being shared with whom) ... can be done by defining different groups
// with various access levels." (Section III.) Each scheme implements Group;
// experiments E1–E3 drive all six through this interface and compare
// encryption cost, membership-change cost, and ciphertext size.
package privacy

import (
	"errors"
	"fmt"
	"sort"

	"godosn/internal/social/identity"
)

// Scheme identifies a Table-I data-privacy mechanism.
type Scheme string

// The six schemes of Table I.
const (
	SchemeSubstitution Scheme = "substitution"
	SchemeSymmetric    Scheme = "symmetric"
	SchemePublicKey    Scheme = "public-key"
	SchemeABE          Scheme = "abe"
	SchemeIBBE         Scheme = "ibbe"
	SchemeHybrid       Scheme = "hybrid"
)

// Errors returned by privacy schemes.
var (
	ErrNotMember     = errors.New("privacy: user is not a group member")
	ErrAlreadyMember = errors.New("privacy: user is already a member")
	ErrWrongScheme   = errors.New("privacy: envelope from different scheme")
	ErrWrongGroup    = errors.New("privacy: envelope from different group")
	ErrStaleEpoch    = errors.New("privacy: envelope from an older key epoch")
	ErrNoMembers     = errors.New("privacy: group has no members")
)

// Envelope is scheme-tagged ciphertext plus routing metadata. Payload holds
// the scheme-specific ciphertext structure; Marshal and Unmarshal (codec.go)
// carry it to and from the bytes that replicas store and serve.
//
// Ownership: every byte field of an envelope returned by Unmarshal is a
// cap-limited view of the bytes it was decoded from, which must not be
// modified while the envelope is in use; every string is a part of one
// string the decoder built, so no string, map key or Group aliases the
// input. The fields are read-only: decrypt them, marshal them, copy them —
// do not write through them. A field that is empty on the wire decodes as
// an empty view, not nil.
type Envelope struct {
	// Scheme produced this envelope.
	Scheme Scheme
	// Group names the producing group.
	Group string
	// Epoch is the group key epoch at encryption time.
	Epoch uint64
	// Payload is the scheme-specific ciphertext.
	Payload any
	// WireSize approximates the serialized size in bytes; Unmarshal sets it
	// to the exact length it decoded.
	WireSize int
}

// Size returns the approximate wire size in bytes.
func (e Envelope) Size() int { return e.WireSize }

// RevocationReport quantifies a membership-removal operation — the cost
// structure the paper contrasts across schemes (Section III): symmetric and
// ABE "need to create a new key and re-encrypt the whole data", while for
// IBBE "removing a recipient from the list would then have no extra cost".
type RevocationReport struct {
	// Free reports a zero-cost revocation (future messages simply exclude
	// the member).
	Free bool
	// RekeyedMembers counts members that received new key material.
	RekeyedMembers int
	// ReencryptedEnvelopes counts archive envelopes that were re-encrypted.
	ReencryptedEnvelopes int
	// PublicKeyOps counts the key agreements the removal performed, as the
	// scheme's sender context counted them: a wrap under a pairwise key the
	// context already holds is a symmetric seal and is not counted.
	PublicKeyOps int
}

// Group is the access-control abstraction every scheme implements.
//
// Decryption takes the member's *identity.User so that private-key material
// stays with its owner: a Group never hands out another member's keys.
type Group interface {
	// Scheme identifies the mechanism.
	Scheme() Scheme
	// Name is the group's identifier.
	Name() string
	// Members lists current members (sorted).
	Members() []string
	// Add admits a member.
	Add(member string) error
	// Remove revokes a member, performing whatever re-keying and archive
	// re-encryption the scheme requires, and reports the cost.
	Remove(member string) (RevocationReport, error)
	// Encrypt produces an envelope readable by current members. The group
	// retains the envelope in its archive (the member-visible history that
	// revocation must re-protect).
	Encrypt(plaintext []byte) (Envelope, error)
	// Decrypt opens an envelope as the given user.
	Decrypt(user *identity.User, env Envelope) ([]byte, error)
	// Archive returns the group's current envelope history. After a
	// revocation that re-encrypts, the archive holds the new envelopes.
	Archive() []Envelope
}

// checkEnvelope validates envelope routing fields against a group.
func checkEnvelope(g Group, env Envelope) error {
	if env.Scheme != g.Scheme() {
		return fmt.Errorf("%w: got %s, want %s", ErrWrongScheme, env.Scheme, g.Scheme())
	}
	if env.Group != g.Name() {
		return fmt.Errorf("%w: got %s, want %s", ErrWrongGroup, env.Group, g.Name())
	}
	return nil
}

// memberSet is the shared membership bookkeeping.
type memberSet struct {
	members map[string]struct{}
}

func newMemberSet() memberSet {
	return memberSet{members: make(map[string]struct{})}
}

func (m *memberSet) add(name string) error {
	if _, ok := m.members[name]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyMember, name)
	}
	m.members[name] = struct{}{}
	return nil
}

func (m *memberSet) remove(name string) error {
	if _, ok := m.members[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotMember, name)
	}
	delete(m.members, name)
	return nil
}

func (m *memberSet) has(name string) bool {
	_, ok := m.members[name]
	return ok
}

func (m *memberSet) sorted() []string {
	out := make([]string, 0, len(m.members))
	for name := range m.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (m *memberSet) len() int { return len(m.members) }
