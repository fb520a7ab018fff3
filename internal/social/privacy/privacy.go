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
	"slices"

	"godosn/internal/crypto/abe"
	"godosn/internal/crypto/ibe"
	"godosn/internal/parallel"
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

// tableI is the six schemes in Table I's order.
var tableI = [...]Scheme{SchemeSubstitution, SchemeSymmetric, SchemePublicKey, SchemeABE, SchemeIBBE, SchemeHybrid}

// Schemes lists the six schemes in Table I's order.
func Schemes() []Scheme { return slices.Clone(tableI[:]) }

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
	// Payload is the scheme-specific ciphertext. Its size is the length of
	// Marshal's output.
	Payload any
}

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

// NewGroup builds an empty group of the given scheme with the defaults a
// deployment gets when it names only the scheme. The trusted party a scheme
// needs is created for this group alone: a substitution dictionary with the
// fakes "John Doe" and "Springfield", an ABE authority under the policy
// "(member)" (so Add grants the one attribute), an IBBE PKG. Public-key and
// hybrid groups wrap to the keys in registry, and the hybrid ACL is signed
// with owner's signing key; the other schemes ignore owner. A caller that
// shares a trusted party, sets a policy or bounds workers calls the scheme's
// own constructor instead.
func NewGroup(scheme Scheme, name string, registry *identity.Registry, owner *identity.User) (Group, error) {
	switch scheme {
	case SchemeSubstitution:
		return group(NewSubstitutionGroup(name, NewDictionary(), [][]byte{[]byte("John Doe"), []byte("Springfield")}))
	case SchemeSymmetric:
		return group(NewSymmetricGroup(name))
	case SchemePublicKey:
		return NewPublicKeyGroup(name, registry), nil
	case SchemeABE:
		authority, err := abe.NewAuthority()
		if err != nil {
			return nil, err
		}
		return group(NewABEGroup(name, authority, "(member)"))
	case SchemeIBBE:
		pkg, err := ibe.NewPKG()
		if err != nil {
			return nil, err
		}
		return NewIBBEGroup(name, pkg), nil
	case SchemeHybrid:
		return group(NewHybridGroup(name, registry, owner.SigningKeyPair()))
	}
	return nil, fmt.Errorf("privacy: unknown scheme %q", scheme)
}

// group returns a constructor's result as a Group, nil on error.
func group[G Group](g G, err error) (Group, error) {
	if err != nil {
		return nil, err
	}
	return g, nil
}

// core is the skeleton every Table-I group embeds: the name, the member
// set and the envelope archive. The six rows differ only in how a group key
// reaches the members, so each scheme file adds just that.
type core struct {
	scheme  Scheme
	name    string
	members map[string]struct{}
	// sorted caches the members in order (see list); nil after a
	// membership change.
	sorted  []string
	archive []Envelope
	// plaintexts retains each archived envelope's cleartext where revocation
	// re-encrypts from it; the group owner legitimately knows its own
	// content.
	plaintexts [][]byte
}

func newCore(scheme Scheme, name string) core {
	return core{scheme: scheme, name: name, members: make(map[string]struct{})}
}

// Scheme identifies the mechanism.
func (c *core) Scheme() Scheme { return c.scheme }

// Name is the group's identifier.
func (c *core) Name() string { return c.name }

// Members lists the current members, sorted.
func (c *core) Members() []string { return slices.Clone(c.list()) }

// Archive returns the group's envelope history.
func (c *core) Archive() []Envelope { return slices.Clone(c.archive) }

func (c *core) has(member string) bool {
	_, ok := c.members[member]
	return ok
}

func (c *core) add(member string) error {
	if c.has(member) {
		return fmt.Errorf("%w: %s", ErrAlreadyMember, member)
	}
	c.members[member] = struct{}{}
	c.sorted = nil
	return nil
}

func (c *core) remove(member string) error {
	if !c.has(member) {
		return fmt.Errorf("%w: %s", ErrNotMember, member)
	}
	delete(c.members, member)
	c.sorted = nil
	return nil
}

// list returns the members in sorted order, sorting them only on the first
// call after add or remove. The slice is never written into once returned,
// so callers share it read-only: an IBBE broadcast keeps it as its recipient
// list.
func (c *core) list() []string {
	if c.sorted == nil {
		c.sorted = make([]string, 0, len(c.members))
		for m := range c.members {
			c.sorted = append(c.sorted, m)
		}
		slices.Sort(c.sorted)
	}
	return c.sorted
}

// check validates an envelope's routing fields against the group.
func (c *core) check(env Envelope) error {
	if env.Scheme != c.scheme {
		return fmt.Errorf("%w: got %s, want %s", ErrWrongScheme, env.Scheme, c.scheme)
	}
	if env.Group != c.name {
		return fmt.Errorf("%w: got %s, want %s", ErrWrongGroup, env.Group, c.name)
	}
	return nil
}

// checkMember refuses a reader outside the member set.
func (c *core) checkMember(user string) error {
	if !c.has(user) {
		return fmt.Errorf("%w: %s", ErrNotMember, user)
	}
	return nil
}

// envelope addresses a payload from this group.
func (c *core) envelope(epoch uint64, payload any) Envelope {
	return Envelope{Scheme: c.scheme, Group: c.name, Epoch: epoch, Payload: payload}
}

// record appends env to the archive.
func (c *core) record(env Envelope) { c.archive = append(c.archive, env) }

// retain appends env to the archive and keeps a copy of its plaintext for
// re-encryption.
func (c *core) retain(env Envelope, plaintext []byte) {
	c.record(env)
	c.plaintexts = append(c.plaintexts, append([]byte(nil), plaintext...))
}

// reencrypt replaces every archived envelope with reseal(i, old), its
// re-protection under the rotated key, and returns how many it replaced.
// workers bounds the fan-out as in parallel.Map; 1 keeps the pass serial for
// a scheme whose reseal is not safe to run concurrently.
func (c *core) reencrypt(workers int, reseal func(i int, old Envelope) (Envelope, error)) (int, error) {
	envs, err := parallel.Map(workers, c.archive, reseal)
	if err != nil {
		return 0, err
	}
	copy(c.archive, envs)
	return len(envs), nil
}
