package privacy

import (
	"fmt"

	"godosn/internal/crypto/ibe"
	"godosn/internal/crypto/pubkey"
	"godosn/internal/social/identity"
)

// IBBEGroup implements Table I's "identity based broadcast encryption" row
// (Section III-E): members are addressed by identity strings (their user
// names), the broadcaster "selects a group of identities in order to encrypt
// the messages for them", and — the property the paper highlights against
// ABE — "removing a recipient from the list would then have no extra cost".
type IBBEGroup struct {
	core
	// envelopeKeyCache optionally memoizes each member's unwrapped broadcast
	// session key per ciphertext (SetKeyCache); Remove bumps its generation.
	envelopeKeyCache

	pkg *ibe.PKG
	// sender is the broadcaster's ECIES context: one key agreement per
	// member identity, then every broadcast wraps its session key to that
	// member with a symmetric seal. It belongs to the group owner, not to
	// the PKG, which stays a public directory.
	sender *pubkey.Sender
	// keys caches each member's extracted identity key (conceptually held
	// by the member after authenticating to the PKG).
	keys map[string]*ibe.IdentityKey
}

var _ Group = (*IBBEGroup)(nil)

// NewIBBEGroup creates a group broadcasting via the given PKG.
func NewIBBEGroup(name string, pkg *ibe.PKG) *IBBEGroup {
	return &IBBEGroup{
		core:   newCore(SchemeIBBE, name),
		pkg:    pkg,
		sender: pubkey.NewSender(),
		keys:   make(map[string]*ibe.IdentityKey),
	}
}

// Add implements Group: any string identity joins without pre-registered
// key material — the PKG extracts the member's key on demand.
func (g *IBBEGroup) Add(member string) error {
	if err := g.add(member); err != nil {
		return err
	}
	key, err := g.pkg.Extract(member)
	if err != nil {
		g.remove(member) //nolint:errcheck // rollback of our own add
		return fmt.Errorf("privacy: extracting identity key for %q: %w", member, err)
	}
	g.keys[member] = key
	return nil
}

// Remove implements Group: zero cost — future broadcasts just exclude the
// identity. The remaining members' pairwise keys with the sender context are
// untouched (the removed member knows only its own), so nothing is re-keyed;
// the removed member's is dropped.
func (g *IBBEGroup) Remove(member string) (RevocationReport, error) {
	if err := g.remove(member); err != nil {
		return RevocationReport{}, err
	}
	delete(g.keys, member)
	// The revocation itself is free, but the revoked member's memoized
	// session keys must not survive it.
	g.keyCache.BumpGeneration()
	pk, err := g.pkg.DirectoryLookup(member)
	if err != nil {
		return RevocationReport{}, fmt.Errorf("privacy: looking up removed identity %q: %w", member, err)
	}
	g.sender.Forget(pk)
	return RevocationReport{Free: true}, nil
}

// Encrypt implements Group via an IBBE broadcast to the member identities,
// which shares the sorted member list read-only as its recipient list.
func (g *IBBEGroup) Encrypt(plaintext []byte) (Envelope, error) {
	if len(g.members) == 0 {
		return Envelope{}, ErrNoMembers
	}
	b, err := g.pkg.EncryptBroadcast(g.sender, g.list(), plaintext)
	if err != nil {
		return Envelope{}, fmt.Errorf("privacy: IBBE broadcast for %q: %w", g.name, err)
	}
	env := g.envelope(1, b)
	g.record(env)
	return env, nil
}

// Decrypt implements Group with the member's identity key. The public-key
// phase (unwrapping the broadcast session key) is memoized per (member,
// ciphertext) when a key cache is set; the membership check runs before any
// cache consult, so a removed member is denied even with a warm cache.
func (g *IBBEGroup) Decrypt(user *identity.User, env Envelope) ([]byte, error) {
	if err := g.check(env); err != nil {
		return nil, err
	}
	key, ok := g.keys[user.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, user.Name)
	}
	b, ok := env.Payload.(*ibe.Broadcast)
	if !ok {
		return nil, fmt.Errorf("privacy: malformed IBBE payload")
	}
	var buf [keyBufSize]byte
	session, _, err := g.keyCache.DoBytes(contentKey(buf[:0], user.Name, b.Body), func() ([]byte, error) {
		return key.UnwrapSession(b)
	})
	if err != nil {
		return nil, fmt.Errorf("privacy: IBBE decrypting for %q: %w", user.Name, err)
	}
	pt, err := ibe.OpenBroadcast(session, b)
	if err != nil {
		return nil, fmt.Errorf("privacy: IBBE decrypting for %q: %w", user.Name, err)
	}
	return pt, nil
}
